"""Threshold-rule detectors for the three known discrepancy classes:

* misconnection - a subtree suddenly much thicker than its parent trunk,
* starting point - a spine of thick nodes right at the root,
* vein - a leaf thicker than the artery it hangs off.

Detectors only flag; they never modify trees.  Jumps within the
measurement-error tolerance epsilon are left alone.  The misconnection scan
takes its subtree medians bottom-up, each candidate reusing the longest
sorted list held by a candidate below it, so any shape costs O(n log n)
comparisons and O(n) memory.
"""

from __future__ import annotations

import enum
import math
from bisect import insort
from dataclasses import dataclass

from .core import BinaryTree, Region
from .ingest import _NUM_RE, _pieces


class FlagKind(enum.Enum):
    """The declaration order is the order of kinds in every report."""

    MISCONNECTION = "Misconnection"
    STARTING_POINT = "StartingPoint"
    VEIN = "Vein"


@dataclass(frozen=True)
class DetectorConfig:
    epsilon_mm: float = 0.3
    misconnection_min_subtree: int = 3
    startpoint_thick_mm: float = 3.0
    startpoint_min_chain: int = 3

    def __post_init__(self):
        # NaN fails every comparison, so a NaN epsilon would silently flag nothing
        if not all(math.isfinite(v) and v > 0 for v in (
                self.epsilon_mm, self.misconnection_min_subtree,
                self.startpoint_thick_mm, self.startpoint_min_chain)):
            raise ValueError("detector thresholds must be positive and finite")


@dataclass(frozen=True)
class FlagRecord:
    subject_id: str
    region: Region
    kind: FlagKind
    node_id: str
    severity: float  # mm of excess


def _median(s) -> float:
    """statistics.median's value for a sorted list, with an even count's
    middle pair halved before it is added: the same float for any normal
    result, and no overflow to inf when both are near the float maximum."""
    m = len(s) // 2
    return s[m] if len(s) % 2 else s[m - 1] / 2.0 + s[m] / 2.0


def detect_misconnection(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    """Flag maximal nodes whose subtree median thickness jumps above the parent.

    A median never exceeds its subtree's maximum, and float subtraction is
    monotone, so only a candidate, a node whose maximum clears the jump, can
    flag. Candidate medians are taken bottom-up, in reverse preorder: a
    candidate takes every sorted list still held below it, those of the
    nearest candidates in its subtree, keeps the longest and adds the rest
    of its slice, the other lists and the nodes no list holds; a candidate
    with no candidate below sorts its slice. Held lists cover disjoint
    subtrees, so they take O(n) memory, and each value is sorted once and
    then moves to another list only as part of a shorter one, at most
    log2(n) times: O(n log n) comparisons on any shape. Each insort also
    shifts the tail of the list, at memory speed, so a chain of d
    candidates over n nodes still moves up to n·d pointers. A preorder pass
    then reports the maximal flagged nodes."""
    ids, thickness, size, parent = tree.ids, tree.thickness, tree.size, tree.parent
    epsilon, min_size = config.epsilon_mm, config.misconnection_min_subtree
    top = list(thickness)  # top[i]: the largest thickness in node i's subtree
    top[0] = -math.inf  # the root is never a candidate, and may lack a thickness
    # the sorted thicknesses of candidate subtrees until a candidate above
    # takes them, and those candidates; pushed in reverse preorder, so the
    # entries of a subtree are the last ones
    held, held_at = [], []
    median = {}  # candidate -> its subtree median, filled in reverse preorder
    for i in range(len(ids) - 1, 0, -1):
        p = parent[i]
        if top[i] > top[p]:
            top[p] = top[i]
        parent_t = thickness[p]
        # only the root can lack a thickness, and no subtree below it holds the root
        if size[i] < min_size or parent_t is None or not top[i] - parent_t - epsilon > 0:
            continue
        end = i + size[i]
        # s starts empty and trades places with any longer list popped, so it
        # ends as the longest list below i; every other value goes into rest
        s, rest, at = [], [], i
        while held_at and held_at[-1] < end:  # popped in preorder
            j = held_at.pop()
            h = held.pop()
            rest += thickness[at:j]  # i itself, or the nodes between two lists
            at = j + size[j]
            if len(h) > len(s):
                s, h = h, s
            rest += h
        rest += thickness[at:end]
        # r = len(rest) insorts shift up to r * len(s) items, and a sort
        # walks all of s; the measured crossover grows with len(s), from
        # r = 1 at 16 values to r = 40 at 65 536, and r < log2(len(s)) follows it
        if len(rest) < len(s).bit_length():
            for t in rest:
                insort(s, t)
        else:
            s += rest
            s.sort()
        held.append(s)
        held_at.append(i)
        median[i] = _median(s)
    flags = []
    end = 0
    for i in reversed(median):  # filled in reverse preorder
        if i >= end and median[i] - thickness[parent[i]] - epsilon > 0:
            flags.append(FlagRecord(
                tree.subject_id, tree.region,
                FlagKind.MISCONNECTION, ids[i], median[i] - thickness[parent[i]],
            ))
            end = i + size[i]  # maximal node only; descendants not re-reported
    return flags


def detect_starting_point(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    """Flag the root when its heavy path, which always descends into the child
    with more descendants, starts with a chain of thick nodes."""
    excess = []  # each chain node's thickness over the threshold
    i = 0
    while True:
        t = tree.thickness[i]
        if t is not None:  # the phantom root carries no thickness
            if t < config.startpoint_thick_mm:
                break
            excess.append(t - config.startpoint_thick_mm)
        kids = tree.children(i)
        if not kids:
            break
        i = max(kids, key=tree.size.__getitem__)  # the first of equals: a tie keeps the left child
    if len(excess) < config.startpoint_min_chain:
        return []
    try:  # n times the mean as statistics.fmean rounds it, fsum / n
        severity = len(excess) * (math.fsum(excess) / len(excess))
    except OverflowError:  # the excesses sum past the float maximum
        severity = math.inf
    return [FlagRecord(
        tree.subject_id, tree.region, FlagKind.STARTING_POINT,
        tree.ids[0], severity,
    )]


def detect_vein(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    """Flag leaves thicker than their parent beyond the error tolerance.

    Flags come in leaf preorder; scan_tree sorts them by (kind, node).
    """
    ids, thickness, size, parent = tree.ids, tree.thickness, tree.size, tree.parent
    flags = []
    for c in range(1, len(size)):  # the root has no parent
        if size[c] == 1:
            t = thickness[parent[c]]
            if t is not None and thickness[c] > t + config.epsilon_mm:
                flags.append(FlagRecord(
                    tree.subject_id, tree.region, FlagKind.VEIN,
                    ids[c], thickness[c] - t,
                ))
    return flags


_KIND_ORDER = {kind: i for i, kind in enumerate(FlagKind)}


def scan_tree(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    flags = (detect_misconnection(tree, config)
             + detect_starting_point(tree, config)
             + detect_vein(tree, config))
    flags.sort(key=lambda f: (_KIND_ORDER[f.kind], f.node_id))
    return flags


FLAGS_HEADER = "subject\tregion\tkind\tnode\tseverity"  # line 1 of a flags.tsv


def flags_to_tsv(flags) -> str:
    lines = [FLAGS_HEADER]
    for f in flags:
        lines.append(
            f"{f.subject_id}\t{f.region.value}\t{f.kind.value}\t{f.node_id}\t{f.severity:.4f}"
        )
    return "\n".join(lines) + "\n"


def flags_from_tsv(text: str) -> list[FlagRecord]:
    """Parse a flags.tsv; a bad row raises ValueError naming its line.

    Line 1 is skipped when it is FLAGS_HEADER, and read as a row otherwise.
    A severity is a number >= 0 in the .dltree grammar, or the inf that
    flags_to_tsv writes for one that overflowed."""
    records = []
    for lineno, _, line in _pieces(text):
        if not line.strip() or (lineno == 1 and line == FLAGS_HEADER):
            continue
        try:
            subject, region, kind, node, severity = line.split("\t")
            region, kind = Region.from_code(region), FlagKind(kind)
            if not (_NUM_RE.fullmatch(severity) or severity == "inf") or float(severity) < 0:
                raise ValueError(f"bad severity {severity!r} (expected a number >= 0, or inf)")
            records.append(FlagRecord(subject, region, kind, node, float(severity)))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}")
    return records
