import dataclasses
import math
import random
import statistics
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlview.core import BinaryNode, BinaryTree, Region
from dlview.detect import (
    DetectorConfig,
    FlagKind,
    FlagRecord,
    detect_misconnection,
    detect_starting_point,
    detect_vein,
    flags_from_tsv,
    flags_to_tsv,
    scan_tree,
)

from conftest import random_binary_tree


def tree(root):
    return BinaryTree("s", Region.BACK, root)


def monotone_tree():
    return tree(BinaryNode("r", 2.0,
                           BinaryNode("a", 1.5, BinaryNode("c", 1.0),
                                      BinaryNode("d", 1.0)),
                           BinaryNode("b", 1.4)))


def test_monotone_tree_clean():
    assert scan_tree(monotone_tree()) == []


def test_misconnection_basic():
    # parent 1.0 carries a 5-node subtree with median 3.0 -> one flag, sev 2.0
    sub = BinaryNode("m1", 3.2,
                     BinaryNode("m2", 3.0, BinaryNode("m4", 2.8),
                                BinaryNode("m5", 2.9)),
                     BinaryNode("m3", 3.1))
    t = tree(BinaryNode("p", 1.0, sub, BinaryNode("q", 0.9)))
    flags = detect_misconnection(t)
    assert len(flags) == 1
    f = flags[0]
    assert f.kind is FlagKind.MISCONNECTION
    assert f.node_id == "m1"
    assert f.severity == pytest.approx(2.0)


def test_misconnection_within_epsilon_not_flagged():
    t = tree(BinaryNode("r", 1.0,
                        BinaryNode("a", 1.2, BinaryNode("b", 1.2),
                                   BinaryNode("c", 1.2))))
    assert detect_misconnection(t) == []


def test_misconnection_needs_min_subtree():
    t = tree(BinaryNode("r", 1.0, BinaryNode("a", 4.0, BinaryNode("b", 4.0))))
    assert detect_misconnection(t) == []
    cfg = dataclasses.replace(DetectorConfig(), misconnection_min_subtree=2)
    assert len(detect_misconnection(t, cfg)) == 1


def test_misconnection_reports_only_maximal_node():
    deep = BinaryNode("x1", 4.0,
                      BinaryNode("x2", 4.0, BinaryNode("x4", 4.0),
                                 BinaryNode("x5", 4.0)),
                      BinaryNode("x3", 4.0))
    t = tree(BinaryNode("p", 0.9, deep, BinaryNode("q", 0.8)))
    flags = detect_misconnection(t)
    assert [f.node_id for f in flags] == ["x1"]


def test_thick_bottom_under_a_deep_comb_scans_in_n_log_n():
    # 10 000 spine nodes thinning from 3.0 to 1.0 mm, each with a 0.5 mm leaf,
    # over a 3-node thick bottom: every spine node is a candidate, and sorting
    # each one's subtree took 2.5 s; reusing the child's sorted list takes ~30 ms
    spine = 10_000
    n = 2 * spine + 3
    ids, thickness, size = [], [], []
    for k in range(spine):
        ids += [f"s{k}", f"l{k}"]
        thickness += [3.0 - 2.0 * k / spine, 0.5]
        size += [n - 2 * k, 1]
    ids += ["m1", "m2", "m3"]
    thickness += [4.0, 3.9, 3.95]
    size += [3, 1, 1]
    t = BinaryTree("s", Region.BACK, ids=ids, thickness=thickness, size=size)
    assert t.node_count == 20_003
    t.parent  # built once per tree and cached; the bound is on the scan
    start = time.perf_counter()
    flags = detect_misconnection(t)
    elapsed = time.perf_counter() - start
    # the one jump: the last spine node's five nodes have median 3.9, and every
    # larger subtree has a median below its parent
    assert [(f.node_id, f.severity) for f in flags] == [("s9999", 3.9 - thickness[-7])]
    assert elapsed < 1.0


def test_alternating_chain_scans_in_linear_memory():
    # thickness 10, 1, 10, 1, ... down a 20 000-node chain: each 10 node is a
    # candidate and its 1 node child is not; a candidate that sorted its slice
    # afresh, with every list kept to the end, took 3.3 s and 800 MB
    n = 20_000
    thickness = [10.0 if k % 2 == 0 else 1.0 for k in range(n)]
    t = BinaryTree("s", Region.BACK, ids=[f"n{k}" for k in range(n)],
                   thickness=thickness, size=[n - k for k in range(n)])
    t.parent  # built once per tree and cached; the bounds are on the scan
    start = time.perf_counter()
    flags = detect_misconnection(t)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        detect_misconnection(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # n2's 19 998 nodes have median 5.5, 4.5 above its parent n1
    assert [(f.node_id, f.severity) for f in flags] == [("n2", 4.5)]
    assert elapsed < 1.0
    assert peak < 16 * n * 8  # a few pointers a node, where n²/4 were held


def test_starting_point_basic():
    # heavy path 3.5, 3.4, 3.2, 3.1 then thin fanout
    n4 = BinaryNode("h4", 3.1, BinaryNode("t1", 1.0), BinaryNode("t2", 1.0))
    n3 = BinaryNode("h3", 3.2, n4, BinaryNode("s3", 1.0))
    n2 = BinaryNode("h2", 3.4, n3, BinaryNode("s2", 1.0))
    t = tree(BinaryNode("h1", 3.5, n2, BinaryNode("s1", 1.0)))
    flags = detect_starting_point(t)
    assert len(flags) == 1
    f = flags[0]
    assert f.kind is FlagKind.STARTING_POINT
    assert f.node_id == "h1"  # the root is the flag locus
    assert f.severity == pytest.approx(0.5 + 0.4 + 0.2 + 0.1)


def test_starting_point_thin_root_clean():
    assert detect_starting_point(monotone_tree()) == []


def test_starting_point_short_chain_not_flagged():
    n2 = BinaryNode("h2", 3.4, BinaryNode("t1", 1.0), BinaryNode("t2", 1.0))
    t = tree(BinaryNode("h1", 3.5, n2, BinaryNode("s1", 1.0)))
    assert detect_starting_point(t) == []
    cfg = dataclasses.replace(DetectorConfig(), startpoint_min_chain=2)
    assert len(detect_starting_point(t, cfg)) == 1


def test_starting_point_skips_phantom_root():
    chain = BinaryNode("h1", 3.5,
                       BinaryNode("h2", 3.4,
                                  BinaryNode("h3", 3.2, BinaryNode("t", 1.0),
                                             BinaryNode("u", 1.0)),
                                  BinaryNode("v", 1.0)),
                       BinaryNode("w", 1.0))
    t = tree(BinaryNode("ph", None, chain, BinaryNode("z", 1.0)))
    flags = detect_starting_point(t)
    assert len(flags) == 1 and flags[0].node_id == "ph"


def test_starting_point_follows_heavy_child():
    # thick chain hangs off the *smaller* child: heavy path avoids it -> clean
    thick = BinaryNode("k1", 3.5, BinaryNode("k2", 3.4, BinaryNode("k3", 3.2)))
    big = BinaryNode("b1", 1.0,
                     BinaryNode("b2", 0.9, BinaryNode("b4", 0.8),
                                BinaryNode("b5", 0.8)),
                     BinaryNode("b3", 0.9, BinaryNode("b6", 0.8),
                                BinaryNode("b7", 0.8)))
    t = tree(BinaryNode("r", 3.6, thick, big))
    assert detect_starting_point(t) == []


def test_thicknesses_near_the_float_maximum_scan_without_overflow():
    big, top = 1e308, 1.7976931348623157e308
    # a root chain whose excesses sum past the float maximum
    flags = detect_starting_point(tree(BinaryNode("a", top, BinaryNode(
        "b", top, BinaryNode("c", top, BinaryNode("d", top))))))
    assert [(f.node_id, f.severity) for f in flags] == [("a", math.inf)]
    assert flags_from_tsv(flags_to_tsv(flags)) == flags  # written and read as "inf"
    # c's subtree median is big, its parent's thickness; its two middle
    # values sum past the float maximum
    c = BinaryNode("c", big, BinaryNode("d", big, BinaryNode("e", big, BinaryNode("f", top))))
    t = tree(BinaryNode("r", big, BinaryNode("p", big, c), BinaryNode("x", 1.0)))
    assert detect_misconnection(t) == []


_TOP = 1.7976931348623157e308  # the float maximum


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(3.0, 10.0), st.floats(1e307, _TOP)), min_size=3, max_size=12),
       st.booleans())
@example([_TOP, _TOP, 3.0], False)
@example([3.5, 1e308, _TOP, 1e308], True)
def test_starting_point_severity_is_len_times_fmean(chain, phantom):
    # a unary chain of thick nodes over one thin leaf, maybe under a phantom
    # root whose other child is a lone thin leaf
    node = BinaryNode("leaf", 1.0)
    for i, x in enumerate(reversed(chain)):
        node = BinaryNode(f"n{i}", x, node)
    t = tree(BinaryNode("ph", None, node, BinaryNode("z", 1.0)) if phantom else node)
    thick = DetectorConfig().startpoint_thick_mm  # 3.0, the strategy's lower bound
    try:
        expected = len(chain) * statistics.fmean(x - thick for x in chain)
    except OverflowError:
        expected = math.inf
    assert [f.severity for f in detect_starting_point(t)] == [expected]


def test_vein_basic():
    t = tree(BinaryNode("r", 2.0, BinaryNode("p", 1.0, BinaryNode("v", 3.5),
                                             BinaryNode("q", 0.9))))
    flags = detect_vein(t)
    assert len(flags) == 1
    assert flags[0].node_id == "v"
    assert flags[0].severity == pytest.approx(2.5)


def test_vein_within_epsilon_and_internal_nodes():
    t = tree(BinaryNode("r", 1.0, BinaryNode("a", 1.1)))
    assert detect_vein(t) == []
    # thick internal node is never a vein
    t2 = tree(BinaryNode("r", 1.0,
                         BinaryNode("fat", 4.0, BinaryNode("a", 0.5),
                                    BinaryNode("b", 0.5))))
    assert detect_vein(t2) == []


def test_scan_tree_order_and_union():
    vein = BinaryNode("zv", 4.0)
    sub = BinaryNode("am", 3.5, BinaryNode("am2", 3.5), BinaryNode("am3", 3.5))
    t = tree(BinaryNode("p", 1.0, sub, vein))
    flags = scan_tree(t)
    assert [f.kind for f in flags] == [FlagKind.MISCONNECTION, FlagKind.VEIN]
    assert [f.node_id for f in flags] == ["am", "zv"]


def test_epsilon_monotonicity():
    rng = random.Random(1234)
    for _ in range(60):
        t = random_binary_tree(rng, max_nodes=40)
        prev = None
        for eps in (0.1, 0.3, 0.8, 2.0):
            cfg = dataclasses.replace(DetectorConfig(), epsilon_mm=eps)
            n = len(detect_misconnection(t, cfg)) + len(detect_vein(t, cfg))
            if prev is not None:
                assert n <= prev
            prev = n


def scale_tree(node, k):
    if node is None:
        return None
    return BinaryNode(node.node_id,
                      None if node.thickness is None else node.thickness * k,
                      scale_tree(node.left, k), scale_tree(node.right, k))


def test_scale_invariance():
    rng = random.Random(555)
    for _ in range(40):
        t = random_binary_tree(rng, max_nodes=40)
        base = scan_tree(t)
        k = 2.5
        cfg = DetectorConfig(epsilon_mm=0.3 * k, startpoint_thick_mm=3.0 * k)
        scaled = BinaryTree(t.subject_id, t.region, scale_tree(t.root, k))
        got = scan_tree(scaled, cfg)
        assert [(f.kind, f.node_id) for f in got] == [(f.kind, f.node_id) for f in base]


def test_flag_subsets():
    rng = random.Random(99)
    for _ in range(60):
        t = random_binary_tree(rng, max_nodes=40)
        leaves = {node_id for node_id, size in zip(t.ids, t.size) if size == 1}
        for f in detect_vein(t):
            assert f.node_id in leaves
        # exactly the leaves past their parent's thickness, found through children
        eps = DetectorConfig().epsilon_mm
        assert sorted(f.node_id for f in detect_vein(t)) == sorted(
            t.ids[c] for i, ti in enumerate(t.thickness) if ti is not None
            for c in t.children(i) if t.size[c] == 1 and t.thickness[c] > ti + eps)
        for f in detect_misconnection(t):
            assert f.node_id != t.root.node_id
        for f in detect_starting_point(t):
            assert f.node_id == t.root.node_id


def test_flags_tsv_roundtrip():
    t = tree(BinaryNode("r", 1.0, BinaryNode("p", 0.9, BinaryNode("v", 3.5),
                                             BinaryNode("q", 0.8))))
    flags = scan_tree(t)
    assert flags
    text = flags_to_tsv(flags)
    back = flags_from_tsv(text)
    assert [(f.subject_id, f.region, f.kind, f.node_id) for f in back] == \
           [(f.subject_id, f.region, f.kind, f.node_id) for f in flags]
    for a, b in zip(back, flags):
        assert a.severity == pytest.approx(b.severity, abs=1e-4)


def test_flags_tsv_skips_only_its_own_header():
    # a subject may be named "subject"; only the exact header line is skipped
    row = "subject\tB\tVein\tn1\t0.5"
    assert flags_from_tsv(row + "\n") == [FlagRecord("subject", Region.BACK, FlagKind.VEIN, "n1", 0.5)]
    assert flags_from_tsv(flags_to_tsv([]) + row + "\n") == flags_from_tsv(row + "\n")
    # a foreign header is a bad row 1
    with pytest.raises(ValueError, match="^line 1: not enough values to unpack"):
        flags_from_tsv("subject\tregion\tkind\tnode\n" + row + "\n")


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(epsilon_mm=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(startpoint_min_chain=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DetectorConfig(epsilon_mm=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            DetectorConfig(startpoint_thick_mm=bad)
