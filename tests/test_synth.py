import math
import random

import pytest

from dlview import synth
from dlview.core import Region
from dlview.detect import FlagKind, scan_tree
from dlview.ingest import serialize_dltree
from dlview.synth import (
    GenParams,
    TreeTooSmallError,
    generate_corpus,
    generate_tree,
    inject_anomaly,
    inject_corpus,
    max_graft_size,
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


def test_max_graft_size_bounds_feasibility():
    rng = random.Random(3)
    for seed in range(40):
        t = generate_tree(GenParams(), seed=seed)
        cap = max_graft_size(t)
        if cap >= 5:
            _, locus = inject_anomaly(t, FlagKind.MISCONNECTION,
                                      seed=rng.randrange(2**30), graft_size=cap)
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
            flagged.add((f.subject_id, f.region_code, f.kind, f.node_id))
    assert flagged == {(s, r, k, n) for s, r, k, n in truth}


def test_repair_script_restores_clean_corpus():
    from dlview.edit import apply_script

    entries = generate_corpus(n_subjects=10, covariate_effect=0.0, seed=55)
    dirty, truth, repairs = inject_corpus(entries, seed=55)
    corpus = {(e.tree.subject_id, e.tree.region.value): e.tree for e in dirty}
    fixed = apply_script(corpus, repairs)
    for tree in fixed.values():
        assert scan_tree(tree) == []
