"""Turn a raw vessel graph into one binary component tree.

Each maximal unary chain of segments collapses to a single trunk node whose
thickness is twice the median radius over all points of the chain.  The
median is statistics.median's own: the chain's radii are pooled into one
list, read from the graph's radius column by each segment's rows, and
sorted in place, and an even count takes (a + b) / 2 of the middle
two, which keeps a pair of subnormal radii from halving to zero first.  Splits
into three or more child vessels become right-leaning combs of binary splits
(children in the graph's total id order, `RawVesselGraph.children_of`;
zero-length synthetic trunks inherit the parent trunk's thickness).  The
k-th synthetic trunk under head h is named h~k, with '~' appended while a
trunk named after a segment has that name.  Two root vessels, in the same
order, are joined under a phantom root with no thickness of its own.  The
graph checked its forest rules when it was built, so a tree is extracted
without checking them again.
"""

from __future__ import annotations

import math

from .core import BinaryTree, RawVesselGraph, subtree_sizes


def extract_binary_tree(graph: RawVesselGraph) -> BinaryTree:
    roots = graph.roots
    if len(roots) > 2:
        raise ValueError(
            f"{len(roots)} roots in {graph.subject_id}/{graph.region.value}; "
            "only 1 or 2 root vessels are supported"
        )
    ids, thickness, parent = [], [], []
    # (parent position, head segment, comb step k: the synthetic trunk head~k
    # if k >= 1, thickness, child segments: None until the chain is walked)
    if len(roots) == 1:
        stack = [(-1, roots[0], 0, None, None)]
    else:
        stack = [(-1, "", 0, None, roots)]
    segments, children_of = graph.segments, graph.children_of
    radius = graph.radius.__getitem__
    combs = set()  # positions of the synthetic trunks
    while stack:
        p, head, step, t, kids = stack.pop()
        if kids is None:
            # walk down the unary chain starting at head, pooling point radii
            radii: list[float] = []
            cur = head
            while True:
                radii += map(radius, segments[cur])
                kids = children_of(cur)
                if len(kids) != 1:
                    break
                cur = kids[0]
            radii.sort()
            m = len(radii) // 2
            t = 2.0 * (radii[m] if len(radii) % 2 else (radii[m - 1] + radii[m]) / 2)
            if t == math.inf:
                raise ValueError(f"trunk {head!r} is too thick: twice its median "
                                 "radius is out of float range")
        i = len(ids)
        if step:
            combs.add(i)
        ids.append(f"{head}~{step}" if step else head)
        thickness.append(t)
        parent.append(p)
        if kids:
            # kids[step] on the left; on the right the next comb trunk, or the last child
            if step < len(kids) - 2:
                stack.append((i, head, step + 1, t, kids))
            else:
                stack.append((i, kids[-1], 0, None, None))
            stack.append((i, kids[step], 0, None, None))
    if len(set(ids)) < len(ids):
        # a synthetic trunk took a segment trunk's name; stripped of trailing
        # '~'s, each synthetic name is its own head~step, so two never meet
        heads = {name for i, name in enumerate(ids) if i not in combs}
        for i in combs:
            while ids[i] in heads:
                ids[i] += "~"
    if len(roots) == 2:
        # a synthetic trunk's name holds a digit, so only a trunk named after
        # a segment can take the phantom's name
        ids[0] = "phantom"
        while ids[0] in ids[1:]:
            ids[0] += "~"
    return BinaryTree(graph.subject_id, graph.region, ids=ids, thickness=thickness,
                      size=subtree_sizes(parent))
