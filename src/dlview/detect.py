"""Threshold-rule detectors for the three known discrepancy classes:

* misconnection - a subtree suddenly much thicker than its parent trunk,
* starting point - a spine of thick nodes right at the root,
* vein - a leaf thicker than the artery it hangs off.

Detectors only flag; they never modify trees.  Jumps within the
measurement-error tolerance epsilon are left alone.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass

from .core import BinaryTree, Region


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
        if (self.epsilon_mm <= 0 or self.misconnection_min_subtree <= 0
                or self.startpoint_thick_mm <= 0 or self.startpoint_min_chain <= 0):
            raise ValueError("detector thresholds must be positive")


@dataclass(frozen=True)
class FlagRecord:
    subject_id: str
    region_code: str
    kind: FlagKind
    node_id: str
    severity: float  # mm of excess


def detect_misconnection(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    """Flag maximal nodes whose subtree median thickness jumps above the parent."""
    nodes, parent, _, size = tree.preorder
    thickness = [n.thickness for n in nodes]
    flags = []
    i = 1
    while i < len(nodes):
        parent_t = thickness[parent[i]]
        # only the root can lack a thickness, and no subtree below it holds the root
        if parent_t is not None and size[i] >= config.misconnection_min_subtree:
            med = statistics.median(thickness[i:i + size[i]])
            if med - parent_t - config.epsilon_mm > 0:
                flags.append(FlagRecord(
                    tree.subject_id, tree.region.value,
                    FlagKind.MISCONNECTION, nodes[i].node_id, med - parent_t,
                ))
                i += size[i]  # maximal node only; descendants not re-reported
                continue
        i += 1
    return flags


def _heavy_path(tree: BinaryTree):
    """Root-to-leaf path always descending into the child with more descendants."""
    nodes, _, _, size = tree.preorder
    path = []
    i = 0
    while True:
        path.append(nodes[i])
        kids = []
        j = i + 1
        for _ in nodes[i].children:  # left first, so a tie keeps the left child
            kids.append(j)
            j += size[j]
        if not kids:
            return path
        i = max(kids, key=size.__getitem__)


def detect_starting_point(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    """Flag the root when its heavy path starts with a chain of thick nodes."""
    path = _heavy_path(tree)
    if path and path[0].thickness is None:  # phantom root carries no thickness
        path = path[1:]
    chain = []
    for node in path:
        if node.thickness is not None and node.thickness >= config.startpoint_thick_mm:
            chain.append(node.thickness)
        else:
            break
    if len(chain) < config.startpoint_min_chain:
        return []
    mean_excess = statistics.fmean(t - config.startpoint_thick_mm for t in chain)
    return [FlagRecord(
        tree.subject_id, tree.region.value, FlagKind.STARTING_POINT,
        tree.root.node_id, len(chain) * mean_excess,
    )]


def detect_vein(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    """Flag leaves thicker than their parent beyond the error tolerance."""
    flags = []
    for node in tree.nodes():
        if node.thickness is None:
            continue
        for child in node.children:
            if child.is_leaf and child.thickness > node.thickness + config.epsilon_mm:
                flags.append(FlagRecord(
                    tree.subject_id, tree.region.value, FlagKind.VEIN,
                    child.node_id, child.thickness - node.thickness,
                ))
    return flags


_KIND_ORDER = {kind: i for i, kind in enumerate(FlagKind)}


def scan_tree(tree: BinaryTree, config: DetectorConfig = DetectorConfig()):
    flags = (detect_misconnection(tree, config)
             + detect_starting_point(tree, config)
             + detect_vein(tree, config))
    flags.sort(key=lambda f: (_KIND_ORDER[f.kind], f.node_id))
    return flags


def flags_to_tsv(flags) -> str:
    lines = ["subject\tregion\tkind\tnode\tseverity"]
    for f in flags:
        lines.append(
            f"{f.subject_id}\t{f.region_code}\t{f.kind.value}\t{f.node_id}\t{f.severity:.4f}"
        )
    return "\n".join(lines) + "\n"


def flags_from_tsv(text: str) -> list[FlagRecord]:
    """Parse a flags.tsv; a bad row raises ValueError naming its line."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or (lineno == 1 and line.startswith("subject\t")):
            continue
        try:
            subject, region, kind, node, severity = line.split("\t")
            Region.from_code(region)
            records.append(FlagRecord(subject, region, FlagKind(kind), node, float(severity)))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}")
    return records
