"""Turn a raw vessel graph into one binary component tree.

Each maximal unary chain of segments collapses to a single trunk node whose
thickness is twice the median radius over all points of the chain.  Splits
into three or more child vessels become right-leaning combs of binary splits
(children ordered by segment id; zero-length synthetic trunks inherit the
parent trunk's thickness).  Two root vessels are joined under a phantom root
with no thickness of its own.
"""

from __future__ import annotations

import statistics

from .core import BinaryNode, BinaryTree, RawVesselGraph, _id_sort_key


def extract_binary_tree(graph: RawVesselGraph) -> BinaryTree:
    if not graph.segments:
        raise ValueError("cannot extract a tree from an empty graph")
    graph.validate()
    roots = sorted(graph.roots, key=_id_sort_key)
    if len(roots) > 2:
        raise ValueError(
            f"{len(roots)} roots in {graph.subject_id}/{graph.region.value}; "
            "only 1 or 2 root vessels are supported"
        )
    trunks: dict[str, BinaryNode] = {}
    for r in roots:
        _collapse_from(graph, r, trunks)
    if len(roots) == 1:
        root = trunks[roots[0]]
    else:
        # synthetic trunk ids end in a digit, so only a trunk named after a
        # segment can take the phantom's name
        pid = _fresh_id("phantom", trunks)
        root = BinaryNode(pid, None, trunks[roots[0]], trunks[roots[1]])
    return BinaryTree(subject_id=graph.subject_id, region=graph.region, root=root)


def _fresh_id(base: str, used) -> str:
    nid = base
    while nid in used:
        nid += "~"
    return nid


def _collapse_from(graph: RawVesselGraph, sid: str, trunks: dict[str, BinaryNode]) -> None:
    """Build the trunk tree under segment sid into `trunks`, keyed by head segment id."""
    found = []  # (head, thickness, child heads); a trunk precedes its children
    stack = [sid]
    while stack:
        head = stack.pop()
        # walk down the unary chain starting at head, pooling point radii
        radii: list[float] = []
        cur = head
        while True:
            radii.extend(p.radius for p in graph.segments[cur].points)
            kids = graph.children_of(cur)
            if len(kids) != 1:
                break
            cur = kids[0]
        found.append((head, 2.0 * statistics.median(radii), kids))
        stack.extend(kids)
    for head, thickness, kids in reversed(found):
        left = right = None
        if kids:
            # >= 3 children: right-leaning comb of synthetic trunks head~1, head~2, ...
            left, right = trunks[kids[0]], trunks[kids[-1]]
            for k in range(len(kids) - 2, 0, -1):
                right = BinaryNode(f"{head}~{k}", thickness, trunks[kids[k]], right)
        trunks[head] = BinaryNode(head, thickness, left, right)
