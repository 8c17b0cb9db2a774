"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random

import pytest

from dlview.core import (
    BinaryNode,
    BinaryTree,
    RawVesselGraph,
    Region,
)


def random_binary_tree(rng: random.Random, max_nodes: int = 64,
                       subject_id: str = "t", region: Region = Region.BACK,
                       allow_phantom: bool = True) -> BinaryTree:
    """Uniform-ish random tree with 4-decimal thicknesses (exact in .dltree)."""
    n_target = rng.randint(1, max_nodes)
    counter = [0]

    def thickness() -> float:
        return round(rng.uniform(0.001, 5.0), 4)

    def grow(budget: int) -> tuple[BinaryNode, int]:
        counter[0] += 1
        nid = f"x{counter[0]}"
        used = 1
        left = right = None
        if budget > 1 and rng.random() < 0.7:
            left, u = grow(budget - 1)
            used += u
            if budget - used > 0 and rng.random() < 0.7:
                right, u = grow(budget - used)
                used += u
        return BinaryNode(nid, thickness(), left, right), used

    root, _ = grow(n_target)
    if allow_phantom and root.left is not None and root.right is not None \
            and rng.random() < 0.15:
        root = BinaryNode("ph", None, root.left, root.right)
    return BinaryTree(subject_id, region, root)


def brute_descendants(node: BinaryNode) -> int:
    """Independent recursive count of proper descendants."""
    total = 0
    for c in node.children:
        total += 1 + brute_descendants(c)
    return total


def random_vess_graph(rng: random.Random, max_segments: int = 40,
                      subject_id: str = "g", region: Region = Region.LEFT,
                      two_roots: bool | None = None,
                      min_segments: int = 1) -> RawVesselGraph:
    """Random forest of segments with occasional polyfurcations."""
    n = rng.randint(min_segments, max_segments)
    if two_roots is None:
        two_roots = n >= 2 and rng.random() < 0.3
    n_roots = 2 if two_roots else 1
    sids = [str(i) for i in range(1, n + 1)]
    rng.shuffle(sids)
    points = {}
    for sid in sids:
        points[sid] = [
            (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10),
             round(rng.uniform(0.05, 2.0), 4))
            for _ in range(rng.randint(2, 5))
        ]
    roots = sids[:n_roots]
    edges = set()
    attached = list(roots)
    for sid in sids[n_roots:]:
        # skew toward recent parents so chains and polyfurcations both occur
        parent = attached[-1] if rng.random() < 0.4 else rng.choice(attached)
        edges.add((parent, sid))
        attached.append(sid)
    # rows in the order serialize_vess writes them, so a graph read back from
    # its bytes equals it
    points = {sid: points[sid] for sid in sorted(points, key=int)}
    return vess_graph(subject_id, region, points, edges, sorted(roots, key=int))


def vess_graph(subject_id: str, region: Region, points: dict, edges, roots) -> RawVesselGraph:
    """The graph whose segment sid runs through points[sid], a list of
    (x, y, z, radius); rows are laid out segment by segment, in the order of
    points."""
    columns: tuple[list[float], ...] = ([], [], [], [])
    segments = {}
    for sid, pts in points.items():
        n = len(columns[0])
        segments[sid] = tuple(range(n, n + len(pts)))
        for column, values in zip(columns, zip(*pts)):
            column += values
    return RawVesselGraph(subject_id, region, *columns, segments, frozenset(edges), tuple(roots))


def raw_graph_trunk_counts(graph: RawVesselGraph):
    """Independent walker over the raw graph.

    Returns (node_count, leaf_count, descendants) where descendants maps the
    head segment id of each trunk chain to its proper-descendant trunk count,
    counting the synthetic trunks a polyfurcation must introduce.
    """
    children: dict[str, list[str]] = {}
    for p, c in graph.edges:
        children.setdefault(p, []).append(c)

    descendants: dict[str, int] = {}
    leaf_count = 0

    def walk(head: str) -> int:
        nonlocal leaf_count
        cur = head
        while len(children.get(cur, [])) == 1:
            cur = children[cur][0]
        kids = children.get(cur, [])
        if not kids:
            leaf_count += 1
            descendants[head] = 0
            return 1
        below = sum(walk(k) for k in kids)
        extra = len(kids) - 2 if len(kids) > 2 else 0
        descendants[head] = below + extra
        return 1 + extra + below

    total = sum(walk(r) for r in graph.roots)
    if len(graph.roots) == 2:
        total += 1  # phantom root
    return total, leaf_count, descendants


@pytest.fixture
def rng():
    return random.Random(0xD17)
