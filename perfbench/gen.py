"""Seeded input generators and independent oracles for the benchmark.

Everything here is derived from the workload seed.  The program under test
only ever sees the files these functions write.  Oracles (trunk counts, the
probe's canonical text, the probe's D-L layout) are computed here without
calling the program, so they can check its outputs.
"""

from __future__ import annotations

import math
import random
from collections import deque

from dlview import synth
from dlview.core import BinaryNode, BinaryTree, Region
from dlview.detect import FlagKind
from dlview.layout import BIN_COUNT, DlLayout, DlNodePlacement, color_bin

# ---------------------------------------------------------------------------
# bigtree: bushy generate_tree ladder plus right combs

# Branching probability at the root for each bushy rung; decay stays 0.05.
# The ladder stops near 8k nodes: with a 17k-node top rung a pass took ~8 s,
# only four passes fit in a 30 s run, and the run-to-run spread of scan_s
# reached 40 %.
BUSHY_P0 = (1.0, 1.05, 1.1, 1.15, 1.2)
# The cost of misconnection and layout depends on a tree's shape (its total
# path length), not only on its size, and generate_tree shapes vary a lot.
# So the bushy shapes do not depend on --seed: every run times the same
# ladder (621, 1069, 1813, 4107 and 8083 nodes with this seed), and
# --seed picks the anomaly sites and the edit targets.
BUSHY_SHAPE_SEED = 3
# right combs stay at depth <= 250: apply-edits recurses three frames per
# level and raises RecursionError between depth 300 and 330
COMB_DEPTHS = (50, 100, 150, 200, 250)
EXTRA_DELETIONS = 8       # extra DELETE_SUBTREE lines on the largest tree
EXTRA_DELETION_LEVEL = 8
KIND_CYCLE = (FlagKind.VEIN, FlagKind.MISCONNECTION, FlagKind.STARTING_POINT)
PROBE_DEPTH = 2000        # deeper than the default recursion limit of 1000


def bushy_tree(rung: int, subject: str) -> BinaryTree:
    shape_seed = random.Random(f"bushy-{rung}-{BUSHY_SHAPE_SEED}").randrange(2**62)
    return synth.generate_tree(synth.GenParams(p0=BUSHY_P0[rung], decay=0.05),
                               shape_seed, subject, Region.BACK)


def comb_tree(depth: int, subject: str) -> BinaryTree:
    """Right comb: spine nodes each carry a leaf on the left, thinning downward."""
    node = None
    for i in reversed(range(depth + 1)):
        t = 2.8 * 0.995 ** i
        if node is None:
            node = BinaryNode(f"s{i}", t)
        else:
            node = BinaryNode(f"s{i}", t, BinaryNode(f"l{i}", 0.9 * t), node)
    return BinaryTree(subject, Region.BACK, node)


def repair_line(tree_before: BinaryTree, kind: FlagKind, locus: str) -> str:
    verb = {FlagKind.VEIN: "DELETE_LEAF", FlagKind.MISCONNECTION: "DELETE_SUBTREE",
            FlagKind.STARTING_POINT: "TRIM_ROOT"}[kind]
    node = tree_before.root.node_id if kind is FlagKind.STARTING_POINT else locus
    return f"{tree_before.subject_id} {tree_before.region.value} {verb} {node}"


def extra_deletions(tree: BinaryTree, rng: random.Random, count: int) -> list[str]:
    """DELETE_SUBTREE targets that stay valid when applied in order.

    Targets share one level, so none contains another, and at most one of
    each sibling pair is taken: a deletion merges the parent with the
    sibling, which drops the sibling's id.
    """
    chosen = []
    for parent in _internal_nodes_at(tree.root, EXTRA_DELETION_LEVEL - 1):
        kids = parent.children
        chosen.append(kids[rng.randrange(len(kids))])
    rng.shuffle(chosen)
    return [f"{tree.subject_id} {tree.region.value} DELETE_SUBTREE {n.node_id}"
            for n in chosen[:count]]


def _internal_nodes_at(root: BinaryNode, level: int) -> list[BinaryNode]:
    nodes = [root]
    for _ in range(level):
        nodes = [c for n in nodes for c in n.children]
    return [n for n in nodes if n.children]


def bigtree_inputs(seed: int):
    """Trees, ground truth rows and the edit script for the bigtree workload.

    Returns (trees, truth, script_lines) where truth holds
    (subject, region, kind, locus) for the one anomaly in each tree.
    """
    rng = random.Random(seed)
    clean = [bushy_tree(i, f"b{i}") for i in range(len(BUSHY_P0))]
    combs = [comb_tree(d, f"c{i}") for i, d in enumerate(COMB_DEPTHS)]
    trees, truth, script = [], [], []
    for i, tree in enumerate(clean + combs):
        kind = KIND_CYCLE[i % len(KIND_CYCLE)]
        # A comb's review time moves by up to 60 % with the depth of its
        # anomaly, so comb sites are fixed and --seed moves the bushy ones.
        site_rng = random.Random(f"comb-site-{i}") if i >= len(clean) else rng
        dirty, locus = synth.inject_anomaly(tree, kind, site_rng.randrange(2**62))
        trees.append(dirty)
        truth.append((tree.subject_id, tree.region.value, kind.value, locus))
        script.append(repair_line(tree, kind, locus))
    largest = max(clean, key=lambda t: t.node_count)
    script += extra_deletions(largest, rng, EXTRA_DELETIONS)
    return trees, sorted(truth), script


# ---------------------------------------------------------------------------
# vessels: .vess graphs on a segment ladder

SEGMENT_LADDER = (500, 700, 1000, 1400, 2000, 2800, 4000)
TWO_ROOT_RUNGS = (1, 3, 5)


def vessel_graph(rng: random.Random, segments: int, roots: int):
    """Random segment forest: unary chains, bi- and polyfurcations.

    Returns {sid: [child sids]} with sids 1..segments and the root list.
    Every node is expanded breadth-first, so the forest reaches exactly
    `segments` segments.
    """
    children: dict[int, list[int]] = {sid: [] for sid in range(1, segments + 1)}
    root_ids = list(range(1, roots + 1))
    frontier = deque(root_ids)
    next_id = roots + 1
    while next_id <= segments:
        sid = frontier.popleft()
        r = rng.random()
        k = 0 if r < 0.08 else 1 if r < 0.35 else 2 if r < 0.82 else 3 if r < 0.94 else 4
        if k == 0 and not frontier:
            k = 1
        for _ in range(min(k, segments - next_id + 1)):
            children[sid].append(next_id)
            frontier.append(next_id)
            next_id += 1
    return children, root_ids


def vess_text(rng: random.Random, subject: str, region: str,
              children: dict[int, list[int]], roots: list[int]) -> str:
    """Serialize a forest; radii shrink with depth so the trees stay clean.

    Each depth owns a radius band strictly below its parent's band, so every
    collapsed trunk is thinner than the trunk above it and no detector fires.
    """
    lines = [f"HEADER {subject} {region}"]
    seg_lines, point_id = [], 0
    depth = {r: 0 for r in roots}
    order = deque(roots)
    while order:
        sid = order.popleft()
        base = 1.3 * 0.96 ** depth[sid]
        pids = []
        for _ in range(rng.randint(2, 4)):
            point_id += 1
            pids.append(f"p{point_id}")
            lines.append(f"POINT p{point_id} {rng.uniform(0, 100):.3f} "
                         f"{rng.uniform(0, 100):.3f} {rng.uniform(0, 100):.3f} "
                         f"{base * rng.uniform(0.99, 1.0):.5f}")
        seg_lines.append(f"SEGMENT {sid} " + " ".join(pids))
        for c in children[sid]:
            depth[c] = depth[sid] + 1
            order.append(c)
    lines += seg_lines
    lines += [f"CONNECT {p} {c}" for p in sorted(children) for c in children[p]]
    lines += [f"ROOT {r}" for r in roots]
    return "\n".join(lines) + "\n"


def trunk_count(children: dict[int, list[int]], roots: list[int]) -> int:
    """Nodes of the extracted binary tree, counted from the forest alone.

    One trunk per maximal unary chain (chains start at roots and at the
    children of every split), k - 2 synthetic comb trunks per k-way split,
    and one phantom root when two root vessels are joined.
    """
    heads = len(roots) + sum(len(k) for k in children.values() if len(k) >= 2)
    combs = sum(len(k) - 2 for k in children.values() if len(k) > 2)
    return heads + combs + (1 if len(roots) == 2 else 0)


def vessels_inputs(seed: int):
    """[(file stem, .vess text, expected node count)].

    As for the bushy trees, the branching structure of each rung is fixed, so
    scan and review time the same tree shapes on every run; --seed picks the
    points (how many per segment, coordinates and radii).
    """
    rng = random.Random(seed)
    regions = [r.value for r in Region]
    out = []
    for i, segments in enumerate(SEGMENT_LADDER):
        roots = 2 if i in TWO_ROOT_RUNGS else 1
        children, root_ids = vessel_graph(random.Random(f"vessels-{i}"), segments, roots)
        subject, region = f"v{i}", regions[i % len(regions)]
        out.append((f"{subject}_{region}", vess_text(rng, subject, region, children, root_ids),
                    trunk_count(children, root_ids)))
    return out


# ---------------------------------------------------------------------------
# depth probe: a unary chain deeper than the default recursion limit


def probe_chain(depth: int = PROBE_DEPTH):
    """(tree, canonical .dltree text, reference layout) built without recursion."""
    # thinning from 2.8 mm keeps every detector silent on the chain
    thick = [f"{2.8 * 0.999 ** i:.4f}" for i in range(depth)]
    node = None
    for i in reversed(range(depth)):
        node = BinaryNode(f"n{i}", float(thick[i]), node, None)
    tree = BinaryTree("probe", Region.BACK, node)
    body = "".join(f"(n{i}:{thick[i]}" + ("," if i < depth - 1 else "")
                   for i in range(depth)) + ")" * depth
    text = f"HEADER probe B\n{body}\n"
    histogram = [0] * BIN_COUNT
    placements = []
    for i in range(depth):
        t = float(thick[i])
        histogram[color_bin(t)] += 1
        y = math.log2(depth - i)
        placements.append(DlNodePlacement(f"n{i}", i, y, y, color_bin(t)))
    layout = DlLayout("probe", "B", tuple(placements),
                      tuple((f"n{i}", f"n{i + 1}") for i in range(depth - 1)),
                      tuple(histogram), float(thick[-1]), float(thick[0]))
    return tree, text, layout
