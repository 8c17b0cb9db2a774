import hashlib
import math
import random

import pytest

from dlview import synth
from dlview.core import BinaryTree, Region
from dlview.detect import FlagKind, scan_tree
from dlview.edit import format_script
from dlview.ingest import serialize_dltree
from dlview.synth import (
    GenParams,
    TreeTooSmallError,
    generate_corpus,
    generate_tree,
    inject_anomaly,
    inject_corpus,
)


def test_p0_zero_single_node():
    t = generate_tree(GenParams(p0=0.0), seed=1)
    assert t.node_count == 1


def test_a_tree_that_keeps_branching_stops_at_the_node_limit(monkeypatch):
    monkeypatch.setattr(synth, "MAX_TREE_NODES", 500)
    for params in (GenParams(p0=1.0, decay=0.0), GenParams(p0=0.95, decay=0.0)):
        with pytest.raises(ValueError, match=r"passed 500 nodes: p0=.* and decay=0.0"):
            generate_tree(params, seed=3)
    monkeypatch.setattr(synth, "MAX_TREE_NODES", 1)
    assert generate_tree(GenParams(p0=0.0), seed=1).node_count == 1


def test_determinism():
    a = generate_tree(GenParams(), seed=42)
    b = generate_tree(GenParams(), seed=42)
    assert serialize_dltree(a) == serialize_dltree(b)
    c = generate_tree(GenParams(), seed=43)
    assert serialize_dltree(a) != serialize_dltree(c)


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(p0=-0.1)
    with pytest.raises(ValueError):
        GenParams(decay=-0.1)
    GenParams(p0=1.5)  # supercritical early levels are allowed


@pytest.mark.parametrize("params", [dict(p0=math.nan), dict(p0=math.inf),
                                    dict(decay=math.nan), dict(decay=math.inf)],
                         ids=["p0-nan", "p0-inf", "decay-nan", "decay-inf"])
def test_params_refuse_non_finite_values(params):
    # a NaN p0 or an infinite decay gave one-node trees, an infinite p0 a
    # tree that grew to MAX_TREE_NODES before it raised
    with pytest.raises(ValueError, match="branching parameters out of range"):
        GenParams(**params)


def _tree_bytes(tree):
    # the thicknesses' reprs pin every bit, not only the 4 decimals written
    return serialize_dltree(tree) + repr(tree.thickness).encode()


# (node count, sha256) over each setting's trees, taken before generate_tree
# was one flat loop; bushy is the benchmark's bigtree ladder
_BUSHY = [GenParams(p0=p0, decay=0.05) for p0 in (1.0, 1.05, 1.1, 1.15, 1.2)]
PINNED_TREES = {
    "p0 zero": ([GenParams(p0=0.0)], range(5), (
        5, "cd9dc251c6c779a4bb3157cbc0d58fd2c65257bcb4a3cf33febad30bdbf7ee91")),
    "deep": ([GenParams(p0=0.45, decay=0.0)], range(100), (
        1124, "bafc06c8fc92cc24fd80ffec5a834c5529eecc4979ad9d694589fd5c487f4126")),
    "default": ([GenParams()], range(40), (
        9642, "0e5e4ac683b0fc10c44c55c285ab906059cc033930ea142e43f1d3c7db288c29")),
    "acceptance 8": ([GenParams(p0=1.35, decay=0.1)], range(20), (
        11574, "c4594bd6624724ac823adc319c6f45ac5eb57a23e4633d5c1bd1a2d8ee4134ca")),
    "bushy": (_BUSHY, range(3), (
        50769, "c5ae0f65c45bda63fdf5f6589c3ef17c6146e1f3b4eb1467f51fec742d4b1930")),
}


@pytest.mark.parametrize("setting", list(PINNED_TREES))
def test_generate_tree_output_is_pinned(setting):
    params_list, seeds, expected = PINNED_TREES[setting]
    h = hashlib.sha256()
    nodes = 0
    for params in params_list:
        for seed in seeds:
            tree = generate_tree(params, seed)
            nodes += tree.node_count
            h.update(_tree_bytes(tree))
    assert (nodes, h.hexdigest()) == expected


@pytest.mark.parametrize("seed, expected", [
    (0, (54938, "ab66c13e3d9652639f67fb08b547915d2e2984d15b904e0d063b2683f236bac8")),
    (1, (55873, "d51dd9c864d1bcc373702a49453c31188064637d48b7c30e13f637f252621575")),
])
def test_acceptance_8_corpus_and_injection_are_pinned(seed, expected):
    """Acceptance 8's corpus for one seed, clean and injected, with its
    covariates, truth rows and repair script; taken as the trees above."""
    entries = generate_corpus(100, 0.005, seed, base_params=GenParams(p0=1.35, decay=0.1))
    dirty, truth, repairs = inject_corpus(entries, seed)
    h = hashlib.sha256()
    for e in entries + dirty:
        h.update(_tree_bytes(e.tree) + repr(e.covariate).encode())
    for subject, region, kind, locus in truth:
        h.update(f"{subject}\t{region}\t{kind.value}\t{locus}\n".encode())
    h.update(format_script(repairs).encode())
    assert (sum(e.tree.node_count for e in dirty), h.hexdigest()) == expected


def test_generated_tree_holds_the_parents_its_sizes_give():
    for seed in range(30):
        t = generate_tree(GenParams(p0=1.35, decay=0.1), seed)
        bare = BinaryTree(t.subject_id, t.region, ids=t.ids, thickness=t.thickness, size=t.size)
        assert t.parent == bare.parent


def test_graft_sites_go_by_parent_then_left_leaf():
    # r(a(a1, a2), b): the leaves come in preorder as a1, a2, b, but b's
    # parent r comes first
    t = BinaryTree("s", Region.BACK, ids=("r", "a", "a1", "a2", "b"),
                   thickness=(3.0, 2.0, 1.0, 1.0, 2.0), size=(5, 3, 1, 1, 1))
    assert list(synth._graft_sites(t)) == [(0, 4, 3), (1, 2, 1), (1, 3, 1)]
    # a lone child has no sibling, and a one-node tree no parent
    chain = BinaryTree("s", Region.BACK, ids=("r", "a"), thickness=(2.0, 1.0), size=(2, 1))
    assert list(synth._graft_sites(chain)) == list(synth._graft_sites(chain.subtree(1))) == []


def test_clean_trees_produce_zero_flags():
    for seed in range(200):
        t = generate_tree(GenParams(), seed=seed)
        assert scan_tree(t) == [], f"seed {seed} produced flags"


def test_monotone_thinning():
    t = generate_tree(GenParams(), seed=7)

    def walk(node):
        for c in node.children:
            assert c.thickness <= node.thickness
            walk(c)

    walk(t.root)


@pytest.mark.parametrize("kind", list(FlagKind))
def test_injection_round_trip(kind):
    """Each injected anomaly is detected at exactly its ground-truth locus."""
    done = 0
    for seed in range(120):
        clean = generate_tree(GenParams(), seed=seed)
        try:
            dirty, locus = inject_anomaly(clean, kind, seed=seed * 13 + 1)
        except TreeTooSmallError:
            continue
        flags = scan_tree(dirty)
        assert len(flags) == 1
        assert flags[0].kind is kind
        assert flags[0].node_id == locus
        done += 1
    assert done >= 60  # most generated trees are large enough to host


def test_injection_determinism():
    clean = generate_tree(GenParams(), seed=5)
    a = inject_anomaly(clean, FlagKind.VEIN, seed=9)
    b = inject_anomaly(clean, FlagKind.VEIN, seed=9)
    assert serialize_dltree(a[0]) == serialize_dltree(b[0]) and a[1] == b[1]


def test_too_small_trees_raise():
    tiny = generate_tree(GenParams(p0=0.0), seed=1)
    for kind in (FlagKind.VEIN, FlagKind.MISCONNECTION):
        with pytest.raises(TreeTooSmallError):
            inject_anomaly(tiny, kind, seed=2)
    # a chain above a phantom root would join two vessels under one trunk
    phantom = BinaryTree("s", Region.BACK, ids=("ph", "a", "b"), thickness=(None, 1.0, 1.0),
                         size=(3, 1, 1))
    with pytest.raises(TreeTooSmallError, match="^cannot prepend above a phantom root$"):
        inject_anomaly(phantom, FlagKind.STARTING_POINT, seed=2)


def test_max_graft_size_bounds_feasibility():
    rng = random.Random(3)
    for seed in range(40):
        t = generate_tree(GenParams(), seed=seed)
        sites = synth._graft_sites(t)
        cap = synth._largest_graft(sites)
        if cap >= 5:
            _, locus = synth._inject_misconnection(t, random.Random(rng.randrange(2**30)), cap,
                                                   sites)
            assert locus


def test_generate_corpus_shape():
    entries = generate_corpus(n_subjects=2, covariate_effect=0.0, seed=1)
    assert len(entries) == 8
    subjects = {e.tree.subject_id for e in entries}
    assert subjects == {"s000", "s001"}
    regions = {e.tree.region for e in entries}
    assert regions == set(Region)
    for e in entries:
        assert 20.0 <= e.covariate <= 80.0
    with pytest.raises(ValueError):
        generate_corpus(n_subjects=1, covariate_effect=0.0, seed=1)
    # a negative effect would grow old subjects' trees without end
    for bad in (math.nan, math.inf, -math.inf, -0.1, -1e-9):
        with pytest.raises(ValueError, match="covariate effect must be finite and not negative"):
            generate_corpus(n_subjects=2, covariate_effect=bad, seed=1)


def test_inject_corpus_ground_truth_matches_scan():
    entries = generate_corpus(n_subjects=10, covariate_effect=0.0, seed=77)
    dirty, truth, repairs = inject_corpus(entries, seed=77)
    assert truth
    assert len(repairs) == len(truth)
    flagged = set()
    for e in dirty:
        for f in scan_tree(e.tree):
            flagged.add((f.subject_id, f.region.value, f.kind, f.node_id))
    assert flagged == {(s, r, k, n) for s, r, k, n in truth}


def test_repair_script_restores_clean_corpus():
    from dlview.edit import apply_script

    entries = generate_corpus(n_subjects=10, covariate_effect=0.0, seed=55)
    dirty, truth, repairs = inject_corpus(entries, seed=55)
    corpus = {(e.tree.subject_id, e.tree.region.value): e.tree for e in dirty}
    fixed = apply_script(corpus, repairs)
    for tree in fixed.values():
        assert scan_tree(tree) == []
