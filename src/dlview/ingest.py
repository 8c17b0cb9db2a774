"""Parsers and canonical serializers for the .vess and .dltree text formats.

.vess (one record per line, `#` starts a comment):
    HEADER <subject_id> <B|L|R|F>
    POINT <pid> <x> <y> <z> <radius_mm>
    SEGMENT <sid> <pid> <pid> ...      # >= 2 pids, flow order
    CONNECT <parent_sid> <child_sid>
    ROOT <sid>

.dltree (blank and `#` lines skipped; the tree may span lines, spaces or tabs
may sit between tokens, and errors give the file's own line and column):
    HEADER <subject_id> <B|L|R|F>
    tree := "(" id ":" (number | "_") { "," tree } ")"  with 0-2 children

A .vess file holds exactly one HEADER, and its records may come in any
order as long as every id is defined before a record uses it.  It is read as
record columns: records are split into tokens a block at a time and taken in
file order, a run of one kind at a time; each run's numbers are checked
against the number grammar by a few substring scans and converted with one
map(float, ...) (_read_numbers), and its ids are checked against the points
or segments read before it; its POINTs extend the graph's point columns.
No repeated ids and one parent per child are checked on whole sets, and the
radii, float range, roots and cycles by the graph, which checks itself when
it is built.  The line walker, which reads one record at a time, runs only
when one of those checks fails: it accepts exactly the files the column read
accepts, and raises the located error.

Errors in either format name the file's line, counted at \\n, \\r\\n and \\r
only.  Records are still the str.splitlines pieces, so a record after a form
feed or another Unicode line break carries the line it sits on.

A .dltree body is split into nodes once, by _TIGHT_NODE, the node pattern
without the optional spaces and tabs, and the pieces are checked and
converted as whole lists.  The piece walker, which matches the
whitespace-tolerant _NODE node by node, reads a body with spaces or tabs,
and any body the split cannot read: it accepts every body the split
accepts, with the same lists, and raises the located error.  Either way the
stack that sizes the nodes also finds each node's parent, and the tree is
handed those parents, so scan and layout do not derive them again.
"""

from __future__ import annotations

import math
import re
from itertools import chain, filterfalse, groupby
from operator import itemgetter
from typing import Optional, Union

from .core import (
    BinaryTree,
    RawVesselGraph,
    Region,
    TreeError,
    _id_sort_key,
    _with_parent,
)


class ParseError(ValueError):
    """An input error, its text the bare message; `.line` and `.col` are 1-based
    (line 0 when it is tied to no line, col None when only the line is known)."""

    def __init__(self, message: str, line: int = 0, col: Optional[int] = None):
        super().__init__(message)
        self.line = line
        self.col = col


_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9.+~-]*")
# A subject names output files (<subject>_<region>.dltree) and starts each
# edit-script line, so it holds no '/' and starts with no '.' or '#'.
_SUBJECT_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+~-]*")
_NUM_RE = re.compile(r"-?\d+(?:\.\d+)?")


def _pieces(text: str):
    """File line, offset and text of each str.splitlines piece of text.

    Lines are numbered at \\n, \\r\\n and \\r only.  A piece after one of
    splitlines' other breaks (\\v, \\f, \\x1c-\\x1e, \\x85, \\u2028,
    \\u2029) keeps the number of the line it sits on, and its offset counts
    from that line's start.  An empty line gives no piece.  Every text
    reader numbers its lines here.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        col = 0
        for piece in line.splitlines():  # every break left in a line is one character
            yield lineno, col, piece
            col += len(piece) + 1


def _lines(text: Union[str, bytes]):
    """File line, piece offset, piece and stripped text of each record that is
    not blank or a `#` comment.

    A record is a `_pieces` piece, stripped; its 0-based column in the file
    line is offset + piece.index(record).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, col, raw in _pieces(text):
        record = raw.strip()
        if record and not record.startswith("#"):
            yield lineno, col, raw, record


def _float(tok: str, lineno: int, what: str) -> float:
    if not _NUM_RE.fullmatch(tok):
        raise ParseError(f"bad {what} {tok!r}", lineno)
    return float(tok)


def parse_vess(text: Union[str, bytes]) -> RawVesselGraph:
    """The graph in a .vess file; a ParseError names the line of the record at fault."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    graph = _read_vess(text)
    return _walk_vess(text) if graph is None else graph


_BLOCK = 512  # records split into tokens at a time
# Ids joined by " " with a trailing " ".
_IDS = re.compile(f"(?:(?:{_ID_RE.pattern}) )*")
# Text that float() reads in a token outside _NUM_RE; see _read_numbers.
_NOT_NUMS = ("+", "_", "e", "E", "n", "N", " .", ". ", "-.")


def _read_numbers(nums: list[str]) -> Optional[list[float]]:
    """The floats of nums if every token is a _NUM_RE number, else None.

    float() reads every -?\\d+(?:\\.\\d+)? token, and beyond those only a
    '+' sign, a '_' between digits, an exponent, inf, infinity or nan in any
    case, and a '.' with no digit on one side.  In the tokens joined as
    " " + " ".join(nums) + " ", the signs, '_' and exponent letters show as
    themselves, every inf, infinity and nan spelling holds an 'n' or 'N', and
    a bare '.' shows as " .", ". " or "-.", so refusing those leaves exactly
    the _NUM_RE tokens.  \\d and float() take the same Unicode decimal digits
    (Py_UNICODE_ISDECIMAL and Py_UNICODE_TODECIMAL).
    """
    joined = " " + " ".join(nums) + " "
    if any(map(joined.__contains__, _NOT_NUMS)):
        return None
    try:
        return list(map(float, nums))
    except ValueError:
        return None


def _read_vess(text: str) -> Optional[RawVesselGraph]:
    """The graph in text, read as record columns; None if any check fails.

    Records are split into tokens a block at a time and taken in file order,
    one run of records of one kind at a time, with comments and blank lines
    anywhere.  Each run is checked as whole columns, and the ids it uses
    against the points or segments read before it; the point values and the
    forest rules are checked when the graph is built.  It reads exactly the files _walk_vess
    accepts, into an equal graph; for any other file it returns None.
    """
    records = text.splitlines()
    comments = "#" in text
    header = None
    x, y, z, radius = [], [], [], []  # the point columns
    index: dict[str, int] = {}  # point id -> row
    segments: dict[str, tuple[int, ...]] = {}
    parents: list[str] = []
    children: list[str] = []
    roots: list[str] = []
    n_segments = 0
    for b in range(0, len(records), _BLOCK):
        block = list(filter(None, map(str.split, records[b:b + _BLOCK])))
        if comments:
            block = [toks for toks in block if toks[0][0] != "#"]
        for kind, group in groupby(block, itemgetter(0)):
            group = list(group)
            lengths = set(map(len, group))
            if kind == "HEADER":
                if (header is not None or len(group) != 1 or lengths != {3}
                        or not _SUBJECT_RE.fullmatch(group[0][1])):
                    return None
                header = group[0]
            elif kind == "POINT":
                if lengths != {6}:
                    return None
                _, pids, *columns = zip(*group)
                values = _read_numbers(list(chain.from_iterable(columns)))
                if values is None:
                    return None
                n, k = len(x), len(group)
                index.update(zip(pids, range(n, n + k)))
                x += values[:k]
                y += values[k:2 * k]
                z += values[2 * k:3 * k]
                radius += values[3 * k:]
            elif kind == "SEGMENT":
                if min(lengths) < 4:
                    return None
                sids = list(map(itemgetter(1), group))
                if not _IDS.fullmatch(" ".join(sids) + " "):
                    return None
                row = index.__getitem__
                try:
                    segments.update(zip(sids, [tuple(map(row, toks[2:])) for toks in group]))
                except KeyError:
                    return None
                n_segments += len(group)
            elif kind == "CONNECT":
                if lengths != {3}:
                    return None
                _, ps, cs = zip(*group)
                if not segments.keys() >= {*ps, *cs}:
                    return None
                parents += ps
                children += cs
            elif kind == "ROOT":
                if lengths != {2}:
                    return None
                _, rs = zip(*group)
                if not segments.keys() >= set(rs):
                    return None
                roots += rs
            else:
                return None
    # the graph's own check finds a bad radius, a number past float range, a
    # repeated root, a root with a parent and a cycle; the edge set would
    # hide a repeated CONNECT, so children are counted.
    if (header is None or len(index) != len(x) or len(segments) != n_segments
            or len(set(children)) != len(children)):
        return None
    try:
        return RawVesselGraph(header[1], Region.from_code(header[2]), x, y, z, radius,
                              segments, frozenset(zip(parents, children)), tuple(roots))
    except ValueError:
        return None


def _walk_vess(text: Union[str, bytes]) -> RawVesselGraph:
    subject_id: Optional[str] = None
    region: Optional[Region] = None
    x, y, z, radius = [], [], [], []  # the point columns
    index: dict[str, int] = {}  # point id -> row
    segments: dict[str, tuple[int, ...]] = {}
    edges: set[tuple[str, str]] = set()
    # union-find toward each segment's tree root: up[s] is some ancestor of
    # s, and only segments that have a parent have an entry
    up: dict[str, str] = {}
    roots: dict[str, None] = {}  # in file order

    for lineno, _, _, line in _lines(text):
        toks = line.split()
        kind = toks[0]
        if kind == "HEADER":
            if subject_id is not None:
                raise ParseError("more than one HEADER record", lineno)
            if len(toks) != 3:
                raise ParseError("HEADER needs <subject_id> <region>", lineno)
            subject_id = toks[1]
            if not _SUBJECT_RE.fullmatch(subject_id):
                raise ParseError(_bad_subject(subject_id), lineno)
            try:
                region = Region.from_code(toks[2])
            except ValueError as e:
                raise ParseError(str(e), lineno)
        elif kind == "POINT":
            if len(toks) != 6:
                raise ParseError("POINT needs <pid> <x> <y> <z> <radius>", lineno)
            pid = toks[1]
            if pid in index:
                raise ParseError(f"duplicate point id {pid!r}", lineno)
            point = [_float(t, lineno, "coordinate") for t in toks[2:5]]
            point.append(_float(toks[5], lineno, "radius"))
            if point[3] <= 0:
                raise ParseError(f"point {pid!r} has radius {point[3]} <= 0", lineno)
            if not all(map(math.isfinite, point)):  # a number past float range reads as inf
                raise ParseError(f"non-finite coordinate/radius in point {pid!r}", lineno)
            index[pid] = len(x)
            for column, v in zip((x, y, z, radius), point):
                column.append(v)
        elif kind == "SEGMENT":
            if len(toks) < 2:
                raise ParseError("SEGMENT needs <sid> <pid>...", lineno)
            sid = toks[1]
            if not _ID_RE.fullmatch(sid):
                raise ParseError(f"bad segment id {sid!r}", lineno)
            if sid in segments:
                raise ParseError(f"duplicate segment id {sid!r}", lineno)
            if len(toks) < 4:
                raise ParseError(f"segment {sid!r} has {len(toks) - 2} point(s), needs >= 2",
                                 lineno)
            for pid in toks[2:]:
                if pid not in index:
                    raise ParseError(f"unknown point id {pid!r}", lineno)
            segments[sid] = tuple(map(index.__getitem__, toks[2:]))
        elif kind == "CONNECT":
            if len(toks) != 3:
                raise ParseError("CONNECT needs <parent_sid> <child_sid>", lineno)
            p, c = toks[1], toks[2]
            for sid in (p, c):
                if sid not in segments:
                    raise ParseError(f"unknown segment id {sid!r}", lineno)
            if c in up:
                raise ParseError(f"segment {c!r} already has a parent", lineno)
            if c in roots:
                raise ParseError(f"root {c!r} has a parent", lineno)
            # c has no parent yet, so it is the root of its own tree
            root = _find_root(up, p)
            if root == c:
                raise ParseError(f"CONNECT {p} {c} closes a cycle", lineno)
            up[c] = root
            edges.add((p, c))
        elif kind == "ROOT":
            if len(toks) != 2:
                raise ParseError("ROOT needs <sid>", lineno)
            sid = toks[1]
            if sid not in segments:
                raise ParseError(f"unknown segment id {sid!r}", lineno)
            if sid in roots:
                raise ParseError(f"duplicate ROOT {sid!r}", lineno)
            if sid in up:
                raise ParseError(f"root {sid!r} has a parent", lineno)
            roots[sid] = None
        else:
            raise ParseError(f"unknown record {kind!r}", lineno)

    if subject_id is None or region is None:
        raise ParseError("missing HEADER record")
    try:
        return RawVesselGraph(subject_id, region, x, y, z, radius, segments,
                              frozenset(edges), tuple(roots))
    except ValueError as e:  # no roots, or a segment no root reaches
        raise ParseError(str(e))


def _find_root(up: dict[str, str], sid: str) -> str:
    """Root of sid's tree, halving the path on the way up."""
    while sid in up:
        nxt = up[sid]
        if nxt in up:
            up[sid] = up[nxt]
        sid = up[sid]
    return sid


def _bad_subject(subject_id: str) -> str:
    return f"bad subject id {subject_id!r} (expected {_SUBJECT_RE.pattern})"


def serialize_vess(graph: RawVesselGraph) -> bytes:
    """Canonical form: records sorted by id, point ids assigned sequentially.

    This is the graph's value: a row that segments share is written once per
    segment, and one no segment uses is not written.  A subject outside the
    subject grammar raises ValueError."""
    if not _SUBJECT_RE.fullmatch(graph.subject_id):
        raise ValueError(_bad_subject(graph.subject_id))
    x, y, z, radius = graph.x, graph.y, graph.z, graph.radius
    point_lines: list[str] = []
    seg_lines = []
    for sid in sorted(graph.segments, key=_id_sort_key):
        pids = []
        for row in graph.segments[sid]:
            pids.append(f"p{len(point_lines) + 1}")
            point_lines.append(f"POINT {pids[-1]} {_num(x[row])} {_num(y[row])} {_num(z[row])} "
                               f"{_num(radius[row])}")
        seg_lines.append(f"SEGMENT {sid} " + " ".join(pids))
    lines = [f"HEADER {graph.subject_id} {graph.region.value}"] + point_lines + seg_lines
    for p, c in sorted(graph.edges, key=lambda e: (_id_sort_key(e[0]), _id_sort_key(e[1]))):
        lines.append(f"CONNECT {p} {c}")
    for r in graph.roots:
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
    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty .dltree file")
    hline, hoff, hraw, header = lines[0]
    toks = header.split()
    try:
        if len(toks) != 3 or toks[0] != "HEADER":
            raise ValueError("first non-comment line must be HEADER <subject_id> <region>")
        if not _SUBJECT_RE.fullmatch(toks[1]):
            raise ValueError(_bad_subject(toks[1]))
        region = Region.from_code(toks[2])
    except ValueError as e:
        raise ParseError(str(e), hline, hoff + hraw.index(header) + 1)
    body = "".join(line for _, _, _, line in lines[1:])

    def at(pos: int) -> tuple[int, int]:
        """File line and 1-based column of body offset pos."""
        for line, off, raw, part in lines[1:]:
            if pos < len(part):
                return line, off + raw.index(part) + pos + 1
            pos -= len(part)
        line, off, raw, part = lines[-1]  # the body's end, or the header's if it is empty
        return line, off + raw.index(part) + len(part) + 1

    ids, thickness, size, parent = _parse_body(body, at)
    try:
        tree = BinaryTree(toks[1], region, ids=ids, thickness=thickness, size=size)
    except TreeError as e:  # located at the '(' that opens the node it names
        raise ParseError(str(e), *at([p for p, c in enumerate(body) if c == "("][e.node]))
    return _with_parent(tree, parent)


# The pieces that open a node, each after optional spaces or tabs, with the
# error raised where the first one that is missing should be.
_WS = re.compile(r"[ \t]*")
_PIECES = (
    ("open", re.compile(r"\("), "expected '('"),
    ("id", _ID_RE, "expected node id"),
    ("colon", re.compile(":"), "expected ':' after node id"),
    ("thickness", re.compile("_|" + _NUM_RE.pattern), "expected thickness number or '_'"),
)


def _node_pattern(gap: str, closes: str) -> re.Pattern:
    """One node as serialize_dltree writes it, with `gap` before each of its
    pieces: the pieces, then the `closes` that close it and its ancestors,
    and an optional ','.  Only the id, thickness, closes and comma groups
    capture, so a split gives [gap, id, thickness, closes, comma] * nodes +
    [tail]."""
    return re.compile("".join(
        gap + (f"(?P<{name}>{p.pattern})" if name in ("id", "thickness")
               else f"(?:{p.pattern})")
        for name, p, _ in _PIECES) + f"(?P<closes>{closes})(?P<comma>,?)")


# A node with spaces or tabs between any two of its tokens, and the same node
# without them, which the split uses: the optional gaps cost a probe each.
_NODE = _node_pattern(_WS.pattern, r"[ \t)]*")
_TIGHT_NODE = _node_pattern("", r"\)*")


def _parse_body(body: str, at):
    """Preorder ids, thicknesses, sizes and parents of the tree in body; at()
    locates errors.

    The body is split by _TIGHT_NODE, which matches no space or tab.  A body
    whose pieces are not one well-formed tree goes to _walk_body.
    """
    parts = _TIGHT_NODE.split(body)
    ids, thick, closes = parts[1::5], parts[2::5], parts[3::5]
    # no gap before a node nor after the tree, a ',' after every node but the
    # last, one ')' per node, and the body ends at the last of them
    if (any(parts[0::5]) or "".join(parts[4::5]) != "," * (len(ids) - 1)
            or body.count(")") != len(ids) or not body.endswith(")")):
        return _walk_body(body, at)
    phantom = thick[0] == "_"
    try:
        thickness = list(map(float, thick[phantom:]))  # a later "_" raises
    except ValueError:
        return _walk_body(body, at)
    if thickness and not (min(thickness) >= 0.0 and max(thickness) < math.inf):
        return _walk_body(body, at)
    if phantom:
        thickness.insert(0, None)
    # With one ')' per node, closing more nodes than are open empties the
    # stack before the last node, which the loop rejects; otherwise the stack
    # ends empty.  The open node on top of the stack is each node's parent.
    size = [0] * len(ids)  # minus the child count while a node is open
    parent = [-1] * len(ids)
    stack: list[int] = []
    for j, n in enumerate(map(len, closes)):
        if stack:
            parent[j] = p = stack[-1]
            size[p] -= 1
        elif j:  # the tree closed before this node
            return _walk_body(body, at)
        stack.append(j)
        if n:
            for i in stack[-n:]:
                if size[i] < -2:
                    return _walk_body(body, at)
                size[i] = j + 1 - i
            del stack[-n:]
    return ids, thickness, size, parent


def _walk_body(body: str, at):
    """Preorder ids, thicknesses, sizes and parents of the tree in body; at()
    locates errors."""
    ids, thickness, size, parent = [], [], [], []
    stack: list[int] = []  # unclosed nodes; size holds minus their child count
    pos = 0
    while True:
        m = _NODE.match(body, pos)
        if m is None:  # _NODE fails exactly where one of its pieces does
            for _, piece, message in _PIECES:
                pos = _WS.match(body, pos).end()
                if (found := piece.match(body, pos)) is None:
                    raise ParseError(message, *at(pos))
                pos = found.end()
        node_id, t, closes, comma = m.group("id", "thickness", "closes", "comma")
        t = None if t == "_" else float(t)
        if t is not None and not 0.0 <= t < math.inf:
            if t < 0:
                raise ParseError(f"node {node_id!r} has negative thickness",
                                 *at(m.start("thickness")))
            raise ParseError(f"node {node_id!r} has a thickness out of float range",
                             *at(m.start("thickness")))
        if stack:
            size[stack[-1]] -= 1
        parent.append(stack[-1] if stack else -1)
        stack.append(len(ids))
        ids.append(node_id)
        thickness.append(t)
        size.append(0)
        # close nodes; without a ',' the next one must close too
        n = closes.count(")")
        for k in range(n if comma else n + 1):
            i = stack.pop()
            if size[i] < -2:
                raise ParseError(f"node {ids[i]!r} has {-size[i]} children",
                                 *at(_close_at(m, k)))
            if k == n:
                raise ParseError("expected ')'", *at(m.end()))
            size[i] = len(ids) - i
            if not stack:
                end = _close_at(m, k) + 1
                if end < len(body):
                    raise ParseError("trailing input after tree expression", *at(end))
                return ids, thickness, size, parent
        pos = m.end()


def _close_at(m: re.Match, k: int) -> int:
    """Body offset of the k-th ')' in node match m, or of the end of m."""
    closes = [m.start("closes") + j for j, c in enumerate(m["closes"]) if c == ")"]
    return closes[k] if k < len(closes) else m.end()


def serialize_dltree(tree: BinaryTree) -> bytes:
    """Canonical form: left child first, thickness with exactly 4 decimals.

    A node id outside the id grammar, which would not read back as itself,
    a subject outside the subject grammar or an infinite thickness, which
    the parser refuses, raises ValueError."""
    if not _SUBJECT_RE.fullmatch(tree.subject_id):
        raise ValueError(_bad_subject(tree.subject_id))
    # one match over the ids joined by " "; an id that holds a " " adds one
    joined = " ".join(tree.ids) + " "
    if joined.count(" ") != len(tree.ids) or not _IDS.fullmatch(joined):
        bad = next(filterfalse(_ID_RE.fullmatch, tree.ids))
        raise ValueError(f"node id {bad!r} is outside the .dltree id grammar")
    if math.inf in tree.thickness:
        bad = tree.ids[tree.thickness.index(math.inf)]
        raise ValueError(f"node {bad!r} has an infinite thickness")
    closes = [0] * (tree.node_count + 1)  # [k]: subtrees whose last node is k - 1
    for j, s in enumerate(tree.size):
        closes[j + s] += 1
    parts: list[str] = []
    for i, (node_id, t) in enumerate(zip(tree.ids, tree.thickness)):
        t = "_" if t is None else f"{t:.4f}"
        parts.append(f"({node_id}:{t}" + ")" * closes[i + 1])
    header = f"HEADER {tree.subject_id} {tree.region.value}"
    return (header + "\n" + ",".join(parts) + "\n").encode("utf-8")
