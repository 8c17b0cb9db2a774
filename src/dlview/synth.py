"""Synthetic vessel-tree corpora with known ground truth.

Clean trees branch with a level-decaying probability and thin monotonically
toward the leaves, so the default detectors stay silent on them by
construction.  Only the branching, `GenParams` (p0, decay), varies between
corpora; the thinning (T0, SHRINK_LO/SHRINK_HI, NOISE, THIN_FLOOR and the
DEEP_CAP_LEVEL/DEEP_CAP_MM cap) is fixed, and so are the injections: they
clear the default detector thresholds (DETECTOR), veins and grafts by a
5x-epsilon margin (MARGIN_MM), so that the injected locus is unambiguous,
and each reports the ground-truth node for recall/precision checks.

A seed defines its tree.  `generate_tree` draws from `random.Random(seed)`
node by node in preorder, in this order:

1. the node's branch decision;
2. if it branches, the left child's shrink, then its noise;
3. the left subtree;
4. the right child's shrink and noise, drawn when the walk reaches it.

A child is max(parent * uniform(SHRINK_LO, SHRINK_HI) - uniform(0, NOISE),
THIN_FLOOR) thick, capped at DEEP_CAP_MM from DEEP_CAP_LEVEL on.  Another
order or other arithmetic gives other corpora; tests pin the bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from . import edit
from .core import BinaryTree, CorpusEntry, Region, _with_parent, subtree_sizes
from .detect import DetectorConfig, FlagKind


@dataclass(frozen=True)
class GenParams:
    p0: float = 0.95           # branching probability at the root level
    decay: float = 0.05        # linear decay of branching probability per level

    def __post_init__(self):
        # p0 may exceed 1; the per-level probability is clamped into [0, 1].
        # A NaN p0 or an infinite decay would give one-node trees without a
        # word, and an infinite p0 would grow every tree to MAX_TREE_NODES.
        if not all(math.isfinite(v) and v >= 0.0 for v in (self.p0, self.decay)):
            raise ValueError("branching parameters out of range")


T0 = 3.8             # root trunk thickness, mm
SHRINK_LO = 0.80
SHRINK_HI = 0.95
NOISE = 0.1          # downward additive noise, kept < epsilon/2
THIN_FLOOR = 0.05    # thickness never drops below this, mm
DEEP_CAP_LEVEL = 2   # from this level thickness is capped ...
DEEP_CAP_MM = 2.9    # ... below the starting-point threshold


DETECTOR = DetectorConfig()          # the thresholds an injection must clear
MARGIN_MM = 5 * DETECTOR.epsilon_mm  # a vein or graft's excess over its parent
INJECT_FRACTION = 0.40  # share of inject_corpus's trees that get an anomaly
GRAFT_FRACTION = 0.45   # inject_corpus's graft size, as a share of the host tree


# generate_tree gives up past this many nodes.  With decay=0 the branching
# probability never falls: past p0=1/2 a tree may grow forever, and at p0=1
# it always does.
MAX_TREE_NODES = 1_000_000


def _branch_p(params: GenParams, level: int) -> float:
    return min(max(params.p0 - params.decay * level, 0.0), 1.0)


def generate_tree(params: GenParams, seed: int, subject_id: str = "synth",
                  region: Region = Region.BACK) -> BinaryTree:
    """The tree that `seed` defines, in the draw order the module states.

    One flat loop: a left child is drawn and walked in place, and a right
    child waits on a stack until its left sibling's subtree is done."""
    draw = random.Random(seed).random
    limit = MAX_TREE_NODES
    span = SHRINK_HI - SHRINK_LO
    branch_p = [_branch_p(params, 0)]  # by level, each computed once
    thickness, parent = [T0], [-1]
    waiting = []  # (parent position, level) of right children not drawn yet
    i, level, t = 0, 0, T0
    while True:
        if draw() < branch_p[level]:
            # walk into the left child in place; the right one waits
            p = i
            level += 1
            waiting.append((p, level))
            if level == len(branch_p):
                branch_p.append(_branch_p(params, level))
        elif waiting:
            p, level = waiting.pop()
            t = thickness[p]
        else:
            break
        # random.uniform(a, b) is a + (b - a) * random(), and uniform(0, NOISE)
        # is NOISE * random() to the bit
        t = t * (SHRINK_LO + span * draw()) - NOISE * draw()
        if t < THIN_FLOOR:
            t = THIN_FLOOR
        if t > DEEP_CAP_MM and level >= DEEP_CAP_LEVEL:
            t = DEEP_CAP_MM
        i += 1
        if i == limit:
            raise ValueError(f"tree passed {limit} nodes: p0={params.p0} and "
                             f"decay={params.decay} keep it branching")
        thickness.append(t)
        parent.append(p)
    ids = [f"n{k}" for k in range(1, len(thickness) + 1)]
    return _with_parent(BinaryTree(subject_id, region, ids=ids, thickness=thickness,
                                   size=subtree_sizes(parent)), parent)


# ---------------------------------------------------------------------------
# anomaly injection


class TreeTooSmallError(ValueError):
    pass


def inject_anomaly(tree: BinaryTree, kind: FlagKind, seed: int) -> tuple[BinaryTree, str]:
    """Inject one anomaly; returns the edited tree and the ground-truth node id.

    A misconnection graft carries DETECTOR's minimum subtree size in nodes,
    and at least 5.
    """
    rng = random.Random(seed)
    if kind is FlagKind.VEIN:
        return _inject_vein(tree, rng)
    if kind is FlagKind.MISCONNECTION:
        graft_size = max(DETECTOR.misconnection_min_subtree, 5)
        return _inject_misconnection(tree, rng, graft_size, _graft_sites(tree))
    if kind is FlagKind.STARTING_POINT:
        return _inject_starting_point(tree)
    raise ValueError(f"unknown anomaly kind {kind!r}")


def _inject_vein(tree: BinaryTree, rng):
    """Split a leaf into a normal child plus an over-thick vein leaf.

    Hosts are restricted to leaves at level >= 2, below the generator's
    thickness cap, so the thick vein can never extend a root chain.
    """
    leaves = [i for i, s in enumerate(tree.size) if s == 1 and tree.level[i] >= 2]
    if not leaves:
        raise TreeTooSmallError("no deep leaf to attach a vein to")
    host = leaves[rng.randrange(len(leaves))]
    used = set(tree.ids)
    vein_id, sib_id = f"vein{rng.randrange(10**6)}", f"sib{rng.randrange(10**6)}"
    while vein_id in used or sib_id in used:
        vein_id, sib_id = vein_id + "x", sib_id + "x"
    t = tree.thickness[host]
    return tree.splice(host, [tree.ids[host], sib_id, vein_id],
                       [t, t * 0.9, t + MARGIN_MM], [3, 1, 1]), vein_id


def _graft_sites(tree: BinaryTree) -> list[tuple[int, int, int]]:
    """(parent, leaf, leaf's sibling subtree size) positions per leaf with a
    sibling, by parent position, left leaf first.  The sibling holds all of
    the parent's slice but the parent and the leaf."""
    size, parent = tree.size, tree.parent
    return sorted((parent[leaf], leaf, size[parent[leaf]] - 2)
                  for leaf in range(1, len(size))
                  if size[leaf] == 1 and size[parent[leaf]] > 2)


def _inject_misconnection(tree: BinaryTree, rng, graft_size: int, sites):
    """Replace a leaf with a generated over-thick subtree of graft_size nodes.

    The host leaf, one of `_graft_sites(tree)`, must have a large-enough
    sibling subtree so that the graft cannot shift any ancestor's subtree
    median.
    """
    candidates = [(parent, leaf) for parent, leaf, sib_size in sites
                  if sib_size >= graft_size + 2]
    if not candidates:
        raise TreeTooSmallError("no leaf with a large enough sibling subtree")
    parent, host = candidates[rng.randrange(len(candidates))]
    used = set(tree.ids)
    prefix = f"mc{rng.randrange(10**6)}"
    # A left-leaning chain, each node the only child of the one before.  The
    # per-step shrink is kept so close to 1 that even a 300-node graft's
    # median stays above 0.8 times its root's thickness, which keeps the
    # subtree median above parent + epsilon for any realistic parent thickness.
    ids, thickness = [], []
    t = tree.thickness[parent] + MARGIN_MM
    for i in range(graft_size):
        nid = f"{prefix}.{i}"
        while nid in used:
            nid += "x"
        used.add(nid)
        ids.append(nid)
        thickness.append(t)
        t *= rng.uniform(0.9990, 0.9998)
    return tree.splice(host, ids, thickness, range(len(ids), 0, -1)), ids[0]


def _inject_starting_point(tree: BinaryTree):
    """Prepend a chain of over-thick trunks above the current root."""
    if tree.thickness[0] is None:
        raise TreeTooSmallError("cannot prepend above a phantom root")
    used = set(tree.ids)
    base = max(DETECTOR.startpoint_thick_mm, tree.thickness[0]) + DETECTOR.epsilon_mm
    for i in range(DETECTOR.startpoint_min_chain + 1):
        nid = f"sp{i}"
        while nid in used:
            nid += "x"
        used.add(nid)
        # the new node becomes the root, with the old root as its only child
        tree = tree.splice(0, (nid,) + tree.ids, (base + 0.1 * (i + 1),) + tree.thickness,
                           (tree.node_count + 1,) + tree.size)
    return tree, tree.ids[0]


def _largest_graft(sites) -> int:
    """Largest misconnection graft the sites can host (0 if none)."""
    return max([0] + [sib_size - 2 for _, _, sib_size in sites])


def repair_operation(tree_before: BinaryTree, kind: FlagKind, locus: str):
    """The edit-script line that undoes an injection into `tree_before`."""
    if kind is FlagKind.VEIN:
        op = edit.DeleteLeaf(locus)
    elif kind is FlagKind.MISCONNECTION:
        op = edit.DeleteSubtree(locus)
    else:
        op = edit.TrimRoot(tree_before.ids[0])
    return edit.ScriptLine(tree_before.subject_id, tree_before.region, op)


# ---------------------------------------------------------------------------
# corpora


def generate_corpus(n_subjects: int, covariate_effect: float, seed: int,
                    base_params: GenParams = GenParams(p0=0.90)) -> list[CorpusEntry]:
    """Subjects aged uniformly in [20, 80], 4 component trees each.

    The covariate enters through the branching probability:
    p0(subject) = base - covariate_effect * age.
    """
    if n_subjects < 2:
        raise ValueError("need at least 2 subjects")
    # a negative effect lifts p0 past 1 for the old, and their trees never stop growing
    if not 0.0 <= covariate_effect < math.inf:
        raise ValueError("covariate effect must be finite and not negative")
    rng = random.Random(seed)
    entries = []
    for i in range(n_subjects):
        age = rng.uniform(20.0, 80.0)
        # only floored at 0; values above 1 are meaningful (early levels branch surely)
        p0 = max(base_params.p0 - covariate_effect * age, 0.0)
        params = replace(base_params, p0=p0)
        subject = f"s{i:03d}"
        for region in Region:
            tree_seed = rng.randrange(2**62)
            entries.append(CorpusEntry(
                generate_tree(params, tree_seed, subject, region), covariate=age,
            ))
    return entries


def inject_plan(entries: list[CorpusEntry], plan, rng: random.Random,
                graft_fraction: float | None = None):
    """Inject one anomaly per `(kind, candidate entry indices)` plan item.

    An item takes the first candidate tree that can host its kind and is
    skipped when its candidates run out; the candidates may be one shared
    iterator, so no tree is tried twice.  `graft_fraction` scales
    misconnection grafts with the host tree.  Returns the dirtied entries,
    the (subject, region code, kind, locus) truth rows in injection order and
    the repair script, later injections undone first.
    """
    dirty = list(entries)
    truth = []
    repairs = []
    for kind, candidates in plan:
        for idx in candidates:
            tree = dirty[idx].tree
            seed = rng.randrange(2**62)
            try:
                if kind is FlagKind.MISCONNECTION and graft_fraction is not None:
                    # one site list sizes the graft and places it
                    sites = _graft_sites(tree)
                    graft = max(DETECTOR.misconnection_min_subtree + 2,
                                min(int(tree.node_count * graft_fraction),
                                    _largest_graft(sites), 300))
                    new_tree, locus = _inject_misconnection(tree, random.Random(seed),
                                                            graft, sites)
                else:
                    new_tree, locus = inject_anomaly(tree, kind, seed)
            except TreeTooSmallError:
                continue
            repairs.append(repair_operation(tree, kind, locus))
            truth.append((tree.subject_id, tree.region.value, kind, locus))
            dirty[idx] = CorpusEntry(new_tree, dirty[idx].covariate)
            break
    repairs.reverse()
    return dirty, truth, repairs


def inject_corpus(entries: list[CorpusEntry], seed: int):
    """Inject one anomaly into each of an INJECT_FRACTION sample of trees.

    A tree too small for its kind stays clean.  Misconnection grafts scale
    with the host tree (GRAFT_FRACTION) so the distortion is visible at
    corpus level.
    """
    rng = random.Random(seed ^ 0x1AB0)
    n_inject = int(len(entries) * INJECT_FRACTION)
    indices = rng.sample(range(len(entries)), n_inject)
    k = max(n_inject // 8, 1)
    kinds = ([FlagKind.MISCONNECTION] * (n_inject - 2 * k)
             + [FlagKind.VEIN] * k + [FlagKind.STARTING_POINT] * k)
    plan = [(kind, [idx]) for idx, kind in zip(indices, kinds)]
    return inject_plan(entries, plan, rng, GRAFT_FRACTION)
