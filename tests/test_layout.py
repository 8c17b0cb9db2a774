import math
import random
import sys

import pytest

from dlview.core import BinaryNode, BinaryTree, Region
from dlview.layout import (
    BIN_COUNT,
    COLOR_RAMP,
    THICKNESS_RANGE_MM,
    DlLayout,
    DlNodePlacement,
    build_layout,
    color_bin,
    jitter_offset,
)

from conftest import random_binary_tree


def test_y_coordinate_values():
    # an 8-node chain: node i has 7 - i descendants
    t = BinaryTree("s", Region.BACK, ids=tuple(f"c{i}" for i in range(8)),
                   thickness=(1.0,) * 8, size=tuple(range(8, 0, -1)))
    y = build_layout(t).y
    assert y[7] == 0.0
    assert y[0] == 3.0
    assert y[3] == pytest.approx(2.321928094887362)


def test_color_bin_values():
    assert color_bin(0.0) == 0
    assert color_bin(5.2) == 99  # above range lands in the top bin
    assert color_bin(2.0) == 50
    assert color_bin(0.58) == 14
    with pytest.raises(ValueError):
        color_bin(-0.1)


def test_color_bin_boundaries():
    assert color_bin(4.0) == 99
    assert color_bin(3.9999) == 99
    assert color_bin(0.04) == 1
    assert color_bin(math.nextafter(0.04, 0.0)) == 0


def test_build_layout_bins_a_column_as_color_bin_does():
    # both sides of every bin edge, subnormals, the float maximum and inf
    edges = {k * THICKNESS_RANGE_MM / BIN_COUNT for k in range(BIN_COUNT + 1)}
    edges |= {k / (BIN_COUNT / THICKNESS_RANGE_MM) for k in range(BIN_COUNT + 1)}
    edges |= {5e-324, 1e-310, sys.float_info.min, 1e300, sys.float_info.max, math.inf}
    values = sorted({w for e in edges for w in (math.nextafter(e, -1.0), e,
                                                 math.nextafter(e, math.inf))
                     if w >= 0.0})
    n = len(values)
    chain = BinaryTree("s", Region.BACK, ids=tuple(f"c{i}" for i in range(n)),
                       thickness=tuple(values), size=tuple(range(n, 0, -1)))
    layout = build_layout(chain)
    assert layout.color_bin == tuple(map(color_bin, values))
    assert layout.histogram == tuple(layout.color_bin.count(b) for b in range(BIN_COUNT))
    # a negative thickness never reaches build_layout: the tree refuses it
    with pytest.raises(ValueError, match="negative thickness -0.1"):
        BinaryTree("s", Region.BACK, ids=("r", "a"), thickness=(1.0, -0.1), size=(2, 1))


def test_color_ramp_shape():
    assert len(COLOR_RAMP) == BIN_COUNT
    assert len(set(COLOR_RAMP)) > 90  # essentially all distinct shades
    for c in COLOR_RAMP:
        assert len(c) == 7 and c.startswith("#")
    # blue at the bottom, red at the top
    r0, g0, b0 = (int(COLOR_RAMP[0][i:i + 2], 16) for i in (1, 3, 5))
    r9, g9, b9 = (int(COLOR_RAMP[-1][i:i + 2], 16) for i in (1, 3, 5))
    assert b0 > r0 and r9 > b9


def test_jitter_bounds_threshold_and_determinism():
    amp = 0.15
    off = jitter_offset("s1", "B", "n1", amp)
    assert -amp <= off <= amp
    assert off == jitter_offset("s1", "B", "n1", amp)
    assert off != jitter_offset("s1", "B", "n2", amp)
    assert off != jitter_offset("s1", "L", "n1", amp)


def test_jitter_applied_only_below_threshold():
    # a 9-node chain: y = log2(9 - i), at or above 3.0 only for the root
    node = None
    for i in reversed(range(9)):
        node = BinaryNode(f"n{i}", 1.0, node)
    lay = build_layout(BinaryTree("s", Region.BACK, node), jitter_salt="x")
    high, low = lay.placements[0], lay.placements[1]
    assert high.y > 3.0 and high.y_jittered == high.y
    assert low.y == 3.0 and low.y_jittered == low.y  # the threshold itself is not jittered
    for p in lay.placements[2:]:
        assert p.y_jittered == p.y + jitter_offset("s", "B", p.node_id, 0.15, "x")
        assert p.y_jittered != p.y and abs(p.y_jittered - p.y) <= 0.15


def test_colocated_leaves_get_distinct_jitter():
    root = BinaryNode("r", 2.0, BinaryNode("u", 1.0), BinaryNode("v", 1.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    ys = {p.node_id: p.y_jittered for p in lay.placements}
    assert ys["u"] != ys["v"]


def test_build_layout_single_node():
    t = BinaryTree("s", Region.BACK, BinaryNode("r", 1.0))
    lay = build_layout(t)
    assert len(lay.placements) == 1
    p = lay.placements[0]
    assert (p.x, p.y) == (0, 0.0)
    assert lay.histogram[25] == 1 and sum(lay.histogram) == 1
    assert lay.thickness_min == lay.thickness_max == 1.0
    assert lay.parent == (-1,)


def test_build_layout_three_nodes():
    root = BinaryNode("r", 2.0, BinaryNode("a", 1.0), BinaryNode("b", 1.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    by_id = {p.node_id: p for p in lay.placements}
    assert by_id["r"].x == 0 and by_id["r"].y == pytest.approx(math.log2(3))
    assert by_id["a"].x == 1 and by_id["a"].y == 0.0
    assert lay.histogram[25] == 2 and lay.histogram[50] == 1
    assert sum(lay.histogram) == 3


def test_phantom_excluded_from_histogram_and_range():
    root = BinaryNode("ph", None, BinaryNode("a", 1.0), BinaryNode("b", 3.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    assert sum(lay.histogram) == 2
    assert lay.thickness_min == 1.0 and lay.thickness_max == 3.0
    assert next(p for p in lay.placements if p.node_id == "ph").color_bin is None


def test_layout_invariants_on_random_trees():
    rng = random.Random(4242)
    for _ in range(150):
        t = random_binary_tree(rng, max_nodes=60)
        lay = build_layout(t)
        assert len(lay.parent) == t.node_count and lay.parent[0] == -1
        for child in range(1, t.node_count):
            parent = lay.parent[child]
            assert lay.x[parent] == lay.x[child] - 1
            # descendant counts shrink strictly toward the leaves
            assert lay.y[parent] > lay.y[child]
        present = sum(1 for v in t.thickness if v is not None)
        assert sum(lay.histogram) == present
        if lay.thickness_max is not None:
            assert lay.histogram[color_bin(lay.thickness_max)] >= 1
            assert lay.thickness_min <= lay.thickness_max
        for p in lay.placements:
            assert abs(p.y_jittered - p.y) <= 0.15 + 1e-12
            if p.y >= 3.0:
                assert p.y_jittered == p.y


def test_layout_config_salt_changes_jitter():
    t = random_binary_tree(random.Random(1), max_nodes=20)
    a = build_layout(t, jitter_salt="")
    b = build_layout(t, jitter_salt="alt")
    assert any(pa.y_jittered != pb.y_jittered
               for pa, pb in zip(a.placements, b.placements)
               if pa.y < 3.0)


def test_hand_made_layout_edges_must_follow_the_placements():
    placements = [DlNodePlacement("r", 0, 1.0, 1.0, 10), DlNodePlacement("a", 1, 0.0, 0.0, 5),
                  DlNodePlacement("b", 1, 0.0, 0.0, 5)]
    ok = DlLayout("s", "B", placements, [("r", "a"), ("r", "b")], (0,) * BIN_COUNT, None, None)
    assert ok.ids == ("r", "a", "b") and ok.parent == (-1, 0, 0)
    for edges in ([("r", "b"), ("r", "a")], [("r", "a")], [("r", "a"), ("q", "b")]):
        with pytest.raises(ValueError):
            DlLayout("s", "B", placements, edges, (0,) * BIN_COUNT, None, None)
