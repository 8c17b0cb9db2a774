"""Parsers and canonical serializers for the .vess and .dltree text formats.

.vess (one record per line, `#` starts a comment):
    HEADER <subject_id> <B|L|R|F>
    POINT <pid> <x> <y> <z> <radius_mm>
    SEGMENT <sid> <pid> <pid> ...      # >= 2 pids, flow order
    CONNECT <parent_sid> <child_sid>
    ROOT <sid>

.dltree:
    line 1: HEADER <subject_id> <B|L|R|F>
    line 2: tree := "(" id ":" (number | "_") { "," tree } ")"  with 0-2 children
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .core import (
    BinaryTree,
    RawVesselGraph,
    Region,
    VesselPoint,
    VesselSegment,
    _id_sort_key,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        loc = f" (line {line}, col {col})" if line else ""
        super().__init__(message + loc)


class SyntaxParseError(ParseError):
    pass


class DanglingReferenceError(ParseError):
    pass


class CycleError(ParseError):
    pass


class SegmentTooShortError(ParseError):
    pass


class BadRadiusError(ParseError):
    pass


class DuplicateIdError(ParseError):
    pass


class TooManyChildrenError(ParseError):
    pass


class NegativeThicknessError(ParseError):
    pass


_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9.+~-]*")
_NUM_RE = re.compile(r"-?\d+(?:\.\d+)?")


def _decode(text: Union[str, bytes]) -> str:
    if isinstance(text, bytes):
        return text.decode("utf-8")
    return text


def _float(tok: str, lineno: int, what: str) -> float:
    if not _NUM_RE.fullmatch(tok):
        raise SyntaxParseError(f"bad {what} {tok!r}", lineno)
    return float(tok)


def parse_vess(text: Union[str, bytes]) -> RawVesselGraph:
    subject_id: Optional[str] = None
    region: Optional[Region] = None
    points: dict[str, VesselPoint] = {}
    segments: dict[str, VesselSegment] = {}
    edges: set[tuple[str, str]] = set()
    # union-find toward each segment's tree root: up[s] is some ancestor of
    # s, and only segments that have a parent have an entry
    up: dict[str, str] = {}
    roots: list[str] = []

    for lineno, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "HEADER":
            if len(toks) != 3:
                raise SyntaxParseError("HEADER needs <subject_id> <region>", lineno)
            subject_id = toks[1]
            try:
                region = Region.from_code(toks[2])
            except ValueError as e:
                raise SyntaxParseError(str(e), lineno)
        elif kind == "POINT":
            if len(toks) != 6:
                raise SyntaxParseError("POINT needs <pid> <x> <y> <z> <radius>", lineno)
            pid = toks[1]
            if pid in points:
                raise DuplicateIdError(f"duplicate point id {pid!r}", lineno)
            x, y, z = (_float(t, lineno, "coordinate") for t in toks[2:5])
            r = _float(toks[5], lineno, "radius")
            if r <= 0:
                raise BadRadiusError(f"point {pid!r} has radius {r} <= 0", lineno)
            points[pid] = VesselPoint(x, y, z, r)
        elif kind == "SEGMENT":
            if len(toks) < 2:
                raise SyntaxParseError("SEGMENT needs <sid> <pid>...", lineno)
            sid = toks[1]
            if not _ID_RE.fullmatch(sid):
                raise SyntaxParseError(f"bad segment id {sid!r}", lineno)
            if sid in segments:
                raise DuplicateIdError(f"duplicate segment id {sid!r}", lineno)
            if len(toks) < 4:
                raise SegmentTooShortError(
                    f"segment {sid!r} has {len(toks) - 2} point(s), needs >= 2", lineno
                )
            pts = []
            for pid in toks[2:]:
                if pid not in points:
                    raise DanglingReferenceError(f"unknown point id {pid!r}", lineno)
                pts.append(points[pid])
            segments[sid] = VesselSegment(sid, tuple(pts))
        elif kind == "CONNECT":
            if len(toks) != 3:
                raise SyntaxParseError("CONNECT needs <parent_sid> <child_sid>", lineno)
            p, c = toks[1], toks[2]
            for sid in (p, c):
                if sid not in segments:
                    raise DanglingReferenceError(f"unknown segment id {sid!r}", lineno)
            if c in up:
                raise DanglingReferenceError(
                    f"segment {c!r} already has a parent", lineno
                )
            # c has no parent yet, so it is the root of its own tree
            root = _find_root(up, p)
            if root == c:
                raise CycleError(f"CONNECT {p} {c} closes a cycle", lineno)
            up[c] = root
            edges.add((p, c))
        elif kind == "ROOT":
            if len(toks) != 2:
                raise SyntaxParseError("ROOT needs <sid>", lineno)
            sid = toks[1]
            if sid not in segments:
                raise DanglingReferenceError(f"unknown segment id {sid!r}", lineno)
            if sid in roots:
                raise DuplicateIdError(f"duplicate ROOT {sid!r}", lineno)
            roots.append(sid)
        else:
            raise SyntaxParseError(f"unknown record {kind!r}", lineno)

    if subject_id is None or region is None:
        raise SyntaxParseError("missing HEADER record")
    graph = RawVesselGraph(
        subject_id=subject_id,
        region=region,
        segments=segments,
        edges=frozenset(edges),
        roots=tuple(roots),
    )
    try:
        graph.validate()
    except ValueError as e:
        raise DanglingReferenceError(str(e))
    return graph


def _find_root(up: dict[str, str], sid: str) -> str:
    """Root of sid's tree, halving the path on the way up."""
    while sid in up:
        nxt = up[sid]
        if nxt in up:
            up[sid] = up[nxt]
        sid = up[sid]
    return sid


def serialize_vess(graph: RawVesselGraph) -> bytes:
    """Canonical form: records sorted by id, point ids assigned sequentially."""
    lines = [f"HEADER {graph.subject_id} {graph.region.value}"]
    sids = sorted(graph.segments, key=_id_sort_key)
    point_lines = []
    seg_lines = []
    next_pid = 1
    for sid in sids:
        seg = graph.segments[sid]
        pids = []
        for pt in seg.points:
            pid = f"p{next_pid}"
            next_pid += 1
            point_lines.append(
                f"POINT {pid} {_num(pt.x)} {_num(pt.y)} {_num(pt.z)} {_num(pt.radius)}"
            )
            pids.append(pid)
        seg_lines.append(f"SEGMENT {sid} " + " ".join(pids))
    lines += point_lines + seg_lines
    for p, c in sorted(graph.edges, key=lambda e: (_id_sort_key(e[0]), _id_sort_key(e[1]))):
        lines.append(f"CONNECT {p} {c}")
    for r in sorted(graph.roots, key=_id_sort_key):
        lines.append(f"ROOT {r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _num(v: float) -> str:
    # shortest decimal that round-trips; exponent notation is not in the grammar
    s = repr(float(v))
    if "e" not in s and "E" not in s:
        return s
    for prec in range(17, 340):
        s = f"{v:.{prec}f}"
        if float(s) == v:
            return s
    raise AssertionError(f"cannot format {v!r} without exponent")


def parse_dltree(text: Union[str, bytes]) -> BinaryTree:
    src = _decode(text)
    lines = src.splitlines()
    body_start = 0
    header = None
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = line
        body_start = i + 1
        break
    if header is None:
        raise SyntaxParseError("empty .dltree file")
    toks = header.split()
    if len(toks) != 3 or toks[0] != "HEADER":
        raise SyntaxParseError("line 1 must be HEADER <subject_id> <region>", 1)
    try:
        region = Region.from_code(toks[2])
    except ValueError as e:
        raise SyntaxParseError(str(e), 1)
    body = "".join(l.strip() for l in lines[body_start:] if not l.strip().startswith("#"))
    ids, thickness, size, pos = _parse_body(body)
    if body[pos:].strip():
        raise SyntaxParseError(f"trailing input after tree expression", 2, pos)
    try:
        return BinaryTree(toks[1], region, ids=ids, thickness=thickness, size=size)
    except ValueError as e:
        msg = str(e)
        if "duplicate" in msg:
            raise DuplicateIdError(msg)
        raise SyntaxParseError(msg)


def _parse_body(s: str):
    """Preorder ids, thicknesses and sizes of the tree at s[0:], and its end."""
    ids, thickness, size = [], [], []
    open_nodes: list[list[int]] = []  # [position, children so far] per unclosed node
    pos = 0
    while True:
        pos = _skip_ws(s, pos)
        if pos >= len(s) or s[pos] != "(":
            raise SyntaxParseError("expected '('", 2, pos)
        pos = _skip_ws(s, pos + 1)
        m = _ID_RE.match(s, pos)
        if not m:
            raise SyntaxParseError("expected node id", 2, pos)
        node_id = m.group(0)
        pos = _skip_ws(s, m.end())
        if pos >= len(s) or s[pos] != ":":
            raise SyntaxParseError("expected ':' after node id", 2, pos)
        pos = _skip_ws(s, pos + 1)
        t: Optional[float]
        if pos < len(s) and s[pos] == "_":
            t = None
            pos += 1
        else:
            m = _NUM_RE.match(s, pos)
            if not m:
                raise SyntaxParseError("expected thickness number or '_'", 2, pos)
            t = float(m.group(0))
            if t < 0:
                raise NegativeThicknessError(
                    f"node {node_id!r} has negative thickness", 2, pos
                )
            pos = m.end()
        if open_nodes:
            open_nodes[-1][1] += 1
        open_nodes.append([len(ids), 0])
        ids.append(node_id)
        thickness.append(t)
        size.append(0)  # set when the node closes
        pos = _skip_ws(s, pos)
        # close nodes until one continues with a ',' child
        while pos >= len(s) or s[pos] != ",":
            i, children = open_nodes.pop()
            if children > 2:
                raise TooManyChildrenError(
                    f"node {ids[i]!r} has {children} children", 2, pos
                )
            if pos >= len(s) or s[pos] != ")":
                raise SyntaxParseError("expected ')'", 2, pos)
            size[i] = len(ids) - i
            if not open_nodes:
                return ids, thickness, size, pos + 1
            pos = _skip_ws(s, pos + 1)
        pos += 1


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos] in " \t":
        pos += 1
    return pos


def serialize_dltree(tree: BinaryTree) -> bytes:
    """Canonical form: left child first, thickness with exactly 4 decimals."""
    closes = [0] * (tree.node_count + 1)  # [k]: subtrees whose last node is k - 1
    for j, s in enumerate(tree.size):
        closes[j + s] += 1
    parts: list[str] = []
    for i, (node_id, t) in enumerate(zip(tree.ids, tree.thickness)):
        t = "_" if t is None else f"{t:.4f}"
        parts.append(f"({node_id}:{t}" + ")" * closes[i + 1])
    header = f"HEADER {tree.subject_id} {tree.region.value}"
    return (header + "\n" + ",".join(parts) + "\n").encode("utf-8")
