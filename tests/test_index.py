"""Property tests: the preorder-array readers and splice edits against
brute-force recursive oracles."""

import math
import random
import re
import statistics
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlview.core import BinaryNode, BinaryTree, Region, TreeError, UnknownNodeError
from dlview.detect import (
    DetectorConfig,
    FlagKind,
    FlagRecord,
    detect_misconnection,
    scan_tree,
)
from dlview.edit import (
    DeleteLeaf,
    DeleteSubtree,
    EditScriptError,
    ScriptLine,
    apply_script,
    delete_subtree,
)
from dlview.ingest import parse_dltree, serialize_dltree
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
from dlview.render import (
    DOT_RADIUS,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    RenderOptions,
    _fmt,
    render_svg,
)

from conftest import brute_descendants

# few distinct values, so subtree medians tie with parents and epsilon often
THICKNESS = st.sampled_from([0.1, 0.5, 0.8, 1.0, 1.1, 1.4, 2.0, 3.5])


@st.composite
def random_trees(draw, max_nodes=40):
    counter = iter(range(max_nodes))

    def grow(budget):
        nid = f"n{next(counter)}"
        t = draw(THICKNESS)
        left = right = None
        used = 1
        if budget > 1 and draw(st.booleans()):
            left, u = grow(budget - 1)
            used += u
        if budget - used > 0 and draw(st.booleans()):
            right, u = grow(budget - used)
            used += u
        return BinaryNode(nid, t, left, right), used

    root, _ = grow(draw(st.integers(1, max_nodes)))
    if root.left is not None and root.right is not None and draw(st.booleans()):
        root = BinaryNode("phantom", None, root.left, root.right)
    return BinaryTree("s", Region.BACK, root)


@st.composite
def combs(draw):
    """Spine of `depth` nodes, each carrying a leaf on one side."""
    depth = draw(st.integers(1, 120))
    node = BinaryNode(f"s{depth}", draw(THICKNESS))
    for i in reversed(range(depth)):
        leaf = BinaryNode(f"l{i}", draw(THICKNESS))
        spine_left = draw(st.booleans())
        node = BinaryNode(f"s{i}", draw(THICKNESS),
                          node if spine_left else leaf, leaf if spine_left else node)
    return BinaryTree("s", Region.LEFT, node)


trees = st.one_of(random_trees(), combs())


def brute_levels(node, level=0, out=None):
    out = {} if out is None else out
    out[node.node_id] = level
    for c in node.children:
        brute_levels(c, level + 1, out)
    return out


def brute_subtree_values(node):
    vals = [] if node.thickness is None else [node.thickness]
    for c in node.children:
        vals += brute_subtree_values(c)
    return vals


def brute_misconnection(tree, epsilon=0.3, min_subtree=3):
    flags = []

    def walk(node, parent):
        if parent is not None and parent.thickness is not None:
            vals = brute_subtree_values(node)
            if len(vals) >= min_subtree:
                med = statistics.median(vals)
                if med - parent.thickness - epsilon > 0:
                    flags.append(FlagRecord(tree.subject_id, tree.region,
                                            FlagKind.MISCONNECTION, node.node_id,
                                            med - parent.thickness))
                    return
        for c in node.children:
            walk(c, node)

    walk(tree.root, None)
    return flags


def brute_layout(tree, salt=""):
    placements, edges = [], []

    def walk(node, level):
        y = math.log2(brute_descendants(node) + 1)
        cb = None if node.thickness is None else color_bin(node.thickness)
        placements.append(DlNodePlacement(node.node_id, level, y, y, cb))
        for c in node.children:
            edges.append((node.node_id, c.node_id))
            walk(c, level + 1)

    walk(tree.root, 0)
    return [apply_jitter(p, tree, salt) for p in placements], edges


def apply_jitter(p, tree, salt):
    """The placement displaced by jitter_offset when it sits below y = 3."""
    if p.y >= 3.0:
        return p
    dy = jitter_offset(tree.subject_id, tree.region.value, p.node_id, 0.15, salt)
    return DlNodePlacement(p.node_id, p.x, p.y, p.y + dy, p.color_bin)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_descendant_count_and_level_match_brute_force(tree):
    levels = brute_levels(tree.root)
    for i, node_id in enumerate(tree.ids):
        assert tree.size[i] - 1 == brute_descendants(tree.subtree(i).root)
        assert tree.level[i] == levels[node_id]
        parent = tree.parent[i]
        assert (parent < 0) == (i == 0)
        if parent >= 0:
            assert i in tree.children(parent)


def _chain(thickness, below=None, prefix="c"):
    """A chain of nodes, each the left child of the one before, over `below`."""
    node = below
    for i in reversed(range(len(thickness))):
        node = BinaryNode(f"{prefix}{i}", thickness[i], node)
    return node


def _comb(depth, end):
    """A thinning comb: `depth` spine nodes, each with a thin left leaf, over `end`."""
    node = end
    for i in reversed(range(depth)):
        node = BinaryNode(f"s{i}", 3.0 * 0.97 ** i, BinaryNode(f"l{i}", 0.5), node)
    return node


# a thick leaf at the bottom of a thinning chain keeps every ancestor a candidate
THICK_BOTTOM_LEAF = BinaryTree("s", Region.BACK, _chain(
    [3.0 * 0.96 ** i for i in range(60)], BinaryNode("leaf", 3.9)))
# a thick subtree at the end of a thinning comb's spine, 50 nodes down
THICK_IN_COMB = BinaryTree("s", Region.LEFT, _comb(50, _chain([3.5, 3.6, 3.4, 3.7])))
# at epsilon 0.5 the subtrees under a, b and c have maxima of parent_t + 0.5 in
# decimal; in floats the bound is 0.0 under a, 1.1e-16 under b and -5.6e-17
# under c, so only b's child flags
EXACT_BOUND = BinaryTree("s", Region.BACK, BinaryNode(
    "r", 2.0,
    BinaryNode("a", 1.0, _chain([1.5, 1.5, 1.5], prefix="a")),
    BinaryNode("m", 2.0,
               BinaryNode("b", 0.6, _chain([1.1, 1.1, 1.1], prefix="b")),
               BinaryNode("c", 0.2, _chain([0.7, 0.7, 0.7], prefix="c")))))

# Shapes for the bottom-up scan, where a candidate reuses a candidate child's
# sorted list.  A 4.5 and a 4.2 in a thinning chain over a thick bottom each
# keep their child from being a candidate, so the chain of candidates breaks
# twice and the node above each break sorts its slice afresh.
BROKEN_CHAIN = BinaryTree("s", Region.BACK, _chain(
    [4.5 if i == 12 else 4.2 if i == 20 else 3.0 * 0.96 ** i for i in range(30)],
    _chain([3.9, 4.0, 3.8], prefix="t")))
# a's children are both candidates and both hold lists, of 5 and 4 nodes, so a
# takes the larger and merges the other; a's 10-node median halves 1.2 and 3.6
TWO_CANDIDATE_CHILDREN = BinaryTree("s", Region.BACK, BinaryNode(
    "r", 1.0, BinaryNode("a", 1.2, _chain([1.1, 1.0, 3.9, 4.0, 3.8], prefix="b"),
                         _chain([1.1, 0.9, 3.7, 3.6], prefix="c"))))
# the same with the larger list on the right
RIGHT_HEAVY_CANDIDATE_CHILDREN = BinaryTree("s", Region.BACK, BinaryNode(
    "r", 1.0, BinaryNode("a", 1.2, _chain([1.1, 3.9, 4.0, 3.8], prefix="b"),
                         _chain([1.1, 0.9, 3.7, 3.6, 3.5], prefix="c"))))


def _comb_with_thick_sides(depth, sides, end):
    """A thinning comb whose side at each level in `sides` is a thick chain."""
    node = end
    for i in reversed(range(depth)):
        side = (_chain(sides[i], prefix=f"k{i}.") if i in sides
                else BinaryNode(f"l{i}", 0.5))
        node = BinaryNode(f"s{i}", 3.0 * 0.97 ** i, side, node)
    return node


# thick subtrees hang off the spine at depths 5, 18 and 31 and end it at 40;
# the longer sides make a rest too long for insort, so it is merged by a sort
SEVERAL_THICK = BinaryTree("s", Region.LEFT, _comb_with_thick_sides(
    40, {5: [3.6, 3.7, 3.5], 18: [3.2] * 12, 31: [2.9, 3.1, 3.0, 3.3, 2.8, 3.4, 3.0]},
    _chain([3.5, 3.6, 3.4, 3.7])))
# a phantom root over two thinning chains with thick bottoms: the phantom's
# children have no parent thickness, so neither is a candidate
PHANTOM_OVER_THICK_BOTTOMS = BinaryTree("s", Region.BACK, BinaryNode(
    "ph", None, _chain([2.0, 1.5, 1.0, 0.8], _chain([3.0, 3.2, 3.1], prefix="t")),
    _chain([1.9, 1.2, 0.7], _chain([2.5, 2.6], prefix="u"), prefix="d")))
# thickness alternating 10, 1, 10, 1: every 10 node is a candidate, and its 1
# node child is not, so each candidate gathers the list held below that child
ALTERNATING = BinaryTree("s", Region.BACK, _chain([10.0, 1.0] * 20))
# 10, 1, 1, 1 over a thick bottom: the second and third 1 nodes are candidates
# too, no median above the bottom clears the jump, and the bottom flags
ALTERNATING_OVER_THICK_BOTTOM = BinaryTree("s", Region.BACK, _chain(
    [10.0, 1.0, 1.0, 1.0] * 10, _chain([4.0, 4.1, 3.9], prefix="t")))
# even-sized subtrees all the way up a chain: every other median halves a pair
EVEN_THICK_BOTTOM = BinaryTree("s", Region.BACK, _chain(
    [2.0 * 0.9 ** i for i in range(20)], _chain([3.0, 3.5, 4.0, 4.5], prefix="t")))


@settings(max_examples=150, deadline=None)
@given(trees, st.sampled_from([0.05, 0.3, 1.0]), st.integers(1, 6))
@example(THICK_BOTTOM_LEAF, 0.3, 3)
@example(THICK_BOTTOM_LEAF, 0.3, 1)
@example(THICK_IN_COMB, 0.3, 3)
@example(THICK_IN_COMB, 0.3, 5)
@example(EXACT_BOUND, 0.5, 3)
@example(BROKEN_CHAIN, 0.3, 3)
@example(BROKEN_CHAIN, 0.05, 1)
@example(TWO_CANDIDATE_CHILDREN, 0.3, 3)
@example(TWO_CANDIDATE_CHILDREN, 0.05, 2)
@example(RIGHT_HEAVY_CANDIDATE_CHILDREN, 0.3, 3)
@example(SEVERAL_THICK, 0.3, 3)
@example(SEVERAL_THICK, 0.05, 1)
@example(SEVERAL_THICK, 1.0, 5)
@example(PHANTOM_OVER_THICK_BOTTOMS, 0.3, 3)
@example(PHANTOM_OVER_THICK_BOTTOMS, 0.05, 1)
@example(ALTERNATING, 0.3, 3)
@example(ALTERNATING, 0.3, 1)
@example(ALTERNATING_OVER_THICK_BOTTOM, 0.3, 3)
@example(ALTERNATING_OVER_THICK_BOTTOM, 0.05, 2)
@example(EVEN_THICK_BOTTOM, 0.3, 4)
@example(EVEN_THICK_BOTTOM, 0.3, 1)
def test_misconnection_matches_brute_force_in_order(tree, epsilon, min_subtree):
    config = DetectorConfig(epsilon_mm=epsilon, misconnection_min_subtree=min_subtree)
    assert detect_misconnection(tree, config) == brute_misconnection(
        tree, epsilon, min_subtree)


jitter_salts = st.sampled_from(["", "alt", "sält|"])


@settings(max_examples=150, deadline=None)
@given(trees, jitter_salts)
def test_layout_matches_brute_force(tree, salt):
    layout = build_layout(tree, salt)
    placements, edges = brute_layout(tree, salt)
    assert list(layout.placements) == placements
    assert [(layout.ids[a], b) for a, b in zip(layout.parent[1:], layout.ids[1:])] == edges
    thick = [t for t in tree.thickness if t is not None]
    assert (layout.thickness_min, layout.thickness_max) == (min(thick), max(thick))


# a phantom root over two unary chains
PHANTOM_OVER_CHAINS = BinaryTree("s", Region.BACK, BinaryNode(
    "ph", None, _chain([2.0, 1.5, 1.0]), _chain([0.5, 0.4], prefix="d")))


@settings(max_examples=150, deadline=None)
@given(trees, jitter_salts)
@example(PHANTOM_OVER_CHAINS, "")
def test_hand_made_layout_matches_build_layout(tree, salt):
    built = build_layout(tree, salt)
    placements, edges = brute_layout(tree, salt)
    hand = DlLayout(built.subject_id, built.region_code, placements, edges,
                    built.histogram, built.thickness_min, built.thickness_max)
    for name in ("ids", "parent", "x", "y", "y_jittered", "color_bin"):
        assert getattr(hand, name) == getattr(built, name), name
    assert hand == built
    for o in (RenderOptions(), RenderOptions(width=640, height=480, axis_labels=False)):
        assert render_svg(hand, o) == render_svg(built, o)


def reference_render_svg(layout, o=RenderOptions()):
    """The per-edge renderer: each segment and dot formats its own coordinates."""
    plot_w = o.width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = o.height - MARGIN_TOP - MARGIN_BOTTOM

    max_x = max((p.x for p in layout.placements), default=0)
    max_y = max((p.y_jittered for p in layout.placements), default=0.0)
    max_y = max(max_y, max((p.y for p in layout.placements), default=0.0), 1e-9)
    span_x = max(max_x, 1)

    def sx(x):
        return MARGIN_LEFT + x / span_x * plot_w

    def sy(y):
        return MARGIN_TOP + (1.0 - y / max_y) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
        f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">',
    ]

    placements = layout.placements
    parts.append('<g stroke="#999999" stroke-width="1">')
    for i in range(1, len(placements)):
        a, b = placements[layout.parent[i]], placements[i]
        parts.append(
            f'<line x1="{_fmt(sx(a.x))}" y1="{_fmt(sy(a.y_jittered))}" '
            f'x2="{_fmt(sx(b.x))}" y2="{_fmt(sy(b.y_jittered))}"/>'
        )
    parts.append("</g>")

    parts.append("<g>")
    for p in layout.placements:
        cx, cy = _fmt(sx(p.x)), _fmt(sy(p.y_jittered))
        if p.color_bin is None:
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{_fmt(DOT_RADIUS)}" '
                'fill="none" stroke="#888888" stroke-width="1.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{_fmt(DOT_RADIUS)}" '
                f'fill="{COLOR_RAMP[p.color_bin]}"/>'
            )
    parts.append("</g>")

    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for x in range(0, max_x + 1):
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_fmt(o.height - MARGIN_BOTTOM + 16)}" '
            f'text-anchor="middle">{x}</text>'
        )
    for y in range(0, int(max_y) + 1):
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(sy(y) + 4)}" '
            f'text-anchor="end">{y}</text>'
        )
    if o.axis_labels:
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" '
            f'y="{_fmt(o.height - 12)}" text-anchor="middle">level</text>'
        )
        parts.append(
            f'<text x="{_fmt(14.0)}" y="{_fmt(MARGIN_TOP + plot_h / 2)}" '
            f'text-anchor="middle" transform="rotate(-90 14.00 '
            f'{_fmt(MARGIN_TOP + plot_h / 2)})">log2(descendants + 1)</text>'
        )
    parts.append("</g>")

    parts.append(reference_sidebar(layout, o, plot_h))

    if layout.thickness_min is not None:
        note = f"{layout.thickness_min:.2f}–{layout.thickness_max:.2f} mm"
        parts.append(
            f'<text x="{_fmt(o.width - 10)}" y="{_fmt(20.0)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13" fill="#000000">'
            f"{escape(note)}</text>"
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def reference_sidebar(layout, o, plot_h):
    """The sidebar formatted from scratch on every call: color bar, count bars, mm ticks."""
    bar_x = o.width - MARGIN_RIGHT + 40
    bar_w = 18.0
    hist_x = bar_x + bar_w + 4
    hist_w_max = MARGIN_RIGHT - 40 - bar_w - 24
    cell_h = plot_h / BIN_COUNT
    max_count = max(layout.histogram) if any(layout.histogram) else 1

    parts = ['<g stroke="none">']
    for i in range(BIN_COUNT):
        # bin 0 at the bottom
        y = MARGIN_TOP + (BIN_COUNT - 1 - i) * cell_h
        parts.append(
            f'<rect x="{_fmt(bar_x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(cell_h)}" fill="{COLOR_RAMP[i]}"/>'
        )
        count = layout.histogram[i]
        if count > 0:
            w = count / max_count * hist_w_max
            parts.append(
                f'<rect x="{_fmt(hist_x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                f'height="{_fmt(cell_h)}" fill="#555555"/>'
            )
    parts.append('</g>')
    parts.append('<g font-family="sans-serif" font-size="10" fill="#333333">')
    for mm in range(0, int(THICKNESS_RANGE_MM) + 1):
        y = MARGIN_TOP + plot_h * (1 - mm / THICKNESS_RANGE_MM)
        parts.append(
            f'<text x="{_fmt(bar_x - 4)}" y="{_fmt(y + 3)}" '
            f'text-anchor="end">{mm}</text>'
        )
    parts.append('</g>')
    return "\n".join(parts)


@st.composite
def chains(draw):
    """A unary chain of 1, 2 or 2000 nodes, deeper than the recursion limit."""
    n = draw(st.sampled_from([1, 2, 2000]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    thickness = tuple(round(rng.uniform(0.0, 4.5), 4) for _ in range(n))
    return BinaryTree("s", Region.RIGHT, ids=tuple(f"c{i}" for i in range(n)),
                      thickness=thickness, size=tuple(range(n, 0, -1)))


render_options = st.one_of(st.just(RenderOptions()), st.builds(
    RenderOptions,
    width=st.integers(50, 1500),
    height=st.integers(50, 1200),
    axis_labels=st.booleans(),
))


@settings(max_examples=150, deadline=None)
@given(st.one_of(trees, chains()), jitter_salts, render_options)
def test_render_matches_per_edge_reference(tree, salt, options):
    layout = build_layout(tree, salt)
    assert render_svg(layout, options) == reference_render_svg(layout, options)


def test_render_interleaved_options_match_reference():
    """Figures rendered under alternating options each get their own frame."""
    def tree(ids, thickness, size):
        return BinaryTree("s", Region.LEFT, ids=ids, thickness=thickness, size=size)

    a = build_layout(tree(("a0", "a1", "a2"), (3.0, 1.2, 0.4), (3, 1, 1)))
    b = build_layout(tree(tuple(f"b{i}" for i in range(6)),
                          (4.1, 2.2, 2.2, 0.9, 0.3, 3.3), (6, 5, 4, 2, 1, 1)))
    c = build_layout(tree(("c0",), (2.5,), (1,)))
    assert a.histogram != b.histogram
    x = RenderOptions(width=800, height=600, axis_labels=False)
    y = RenderOptions(width=640, height=480)
    z = RenderOptions(width=640, height=480, axis_labels=False)
    d = RenderOptions()
    sequence = [(a, x), (b, y), (a, x), (c, z), (b, x), (a, y), (c, d), (b, z), (a, x),
                (a, z), (b, z)]
    for layout, options in sequence:
        assert render_svg(layout, options) == reference_render_svg(layout, options)


@st.composite
def phantom_roots(draw):
    """A phantom root over two drawn trees, built from their arrays."""
    vessels = trees.filter(lambda t: t.thickness[0] is not None)
    left, right = draw(vessels), draw(vessels)
    return BinaryTree("s", Region.FRONT,
                      ids=("ph",) + tuple(f"a{x}" for x in left.ids)
                      + tuple(f"b{x}" for x in right.ids),
                      thickness=(None,) + left.thickness + right.thickness,
                      size=(1 + left.node_count + right.node_count,) + left.size + right.size)


@settings(max_examples=150, deadline=None)
@given(st.one_of(trees, chains(), phantom_roots()), st.data())
def test_navigation_by_descent_matches_the_parent_array(tree, data):
    parent = tree.parent
    for i, node_id in enumerate(tree.ids):
        up, a = [], parent[i]
        while a >= 0:
            up.append(a)
            a = parent[a]
        assert tree.ancestors(i) == up[::-1]
        assert tree.position(node_id) == tree.ids.index(node_id) == i
    with pytest.raises(UnknownNodeError):
        tree.position("missing")
    if tree.node_count > 1:
        j, k = sorted(data.draw(st.lists(st.integers(0, tree.node_count - 1),
                                         min_size=2, max_size=2, unique=True)))
        ids = tree.ids[:k] + (tree.ids[j],) + tree.ids[k + 1:]
        message = f"^{re.escape(f'duplicate node_id {tree.ids[j]!r}')}$"
        with pytest.raises(TreeError, match=message) as exc:
            BinaryTree("s", tree.region, ids=ids, thickness=tree.thickness, size=tree.size)
        assert exc.value.node == k


def _remove(node, target_id):
    """The recursive whole-tree rebuild that delete_subtree replaced."""
    if node.node_id == target_id:
        return None
    kids = [c for c in node.children]
    new_kids = [k for k in (_remove(c, target_id) for c in kids) if k is not None]
    if len(kids) == 2 and len(new_kids) == 1:
        survivor = new_kids[0]
        if node.thickness is None:
            return survivor  # phantom root no longer joins two vessels
        merged_t = (node.thickness + survivor.thickness) / 2.0
        return BinaryNode(node.node_id, merged_t, survivor.left, survivor.right)
    left = new_kids[0] if new_kids else None
    right = new_kids[1] if len(new_kids) > 1 else None
    return BinaryNode(node.node_id, node.thickness, left, right)


def _replace_node(node, target_id, repl):
    """The recursive whole-tree rebuild that BinaryTree.splice replaced."""
    if node.node_id == target_id:
        return repl
    left = _replace_node(node.left, target_id, repl) if node.left else None
    right = _replace_node(node.right, target_id, repl) if node.right else None
    return BinaryNode(node.node_id, node.thickness, left, right)


def shape(tree):
    # _remove moves every only child to the left; output formats cannot tell
    return [(node_id, tree.thickness[i], [tree.ids[c] for c in tree.children(i)])
            for i, node_id in enumerate(tree.ids)]


@settings(max_examples=200, deadline=None)
@given(trees, st.data())
def test_path_copy_edits_match_recursive_oracles(tree, data):
    target = data.draw(st.sampled_from(tree.ids))
    repl = BinaryNode("new", 0.7, None, BinaryNode("new.1", 0.6))
    block = BinaryTree("s", Region.BACK, repl)
    out = tree.splice(tree.position(target), block.ids, block.thickness, block.size)
    expected = BinaryTree(tree.subject_id, tree.region, _replace_node(tree.root, target, repl))
    assert shape(out) == shape(expected)

    if target == tree.root.node_id:
        with pytest.raises(EditScriptError):
            delete_subtree(tree, target)
        return
    expected = BinaryTree(tree.subject_id, tree.region, _remove(tree.root, target))
    assert shape(delete_subtree(tree, target)) == shape(expected)


@settings(max_examples=200, deadline=None)
@given(st.one_of(trees, phantom_roots()), st.data())
def test_edit_sequences_match_recursive_oracles(tree, data):
    """Later lines descend through the sizes that earlier lines changed."""
    key = ("s", tree.region.value)
    expected, script = tree, []
    for _ in range(data.draw(st.integers(2, 5))):
        if expected.node_count == 1:
            break
        target = data.draw(st.sampled_from(expected.ids[1:]))
        leaf = expected.size[expected.position(target)] == 1
        op = DeleteLeaf(target) if leaf and data.draw(st.booleans()) else DeleteSubtree(target)
        script.append(ScriptLine("s", tree.region, op))
        expected = BinaryTree("s", tree.region, _remove(expected.root, target))
    out = apply_script({key: tree}, script)
    assert shape(out[key]) == shape(expected)
    for t in out.values():
        assert "parent" not in t.__dict__  # no edit derives the parent array


def _chain_text(thick):
    n = len(thick)
    body = "".join(f"(c{i}:{t}" + ("," if i < n - 1 else "") for i, t in enumerate(thick))
    return f"HEADER s B\n{body}{')' * n}\n"


def test_chain_of_ten_thousand_nodes_through_every_stage():
    n = 10_000
    thick = [f"{3.9 * 0.9999 ** i:.4f}" for i in range(n)]
    text = _chain_text(thick)
    tree = parse_dltree(text)
    assert tree.node_count == n
    flags = scan_tree(tree)
    # the thick root chain is a starting point; a thinning chain hides no other jump
    assert [f.kind for f in flags] == [FlagKind.STARTING_POINT]
    layout = build_layout(tree)
    assert len(layout.placements) == n and layout.parent == (-1, *range(n - 1))
    deepest = layout.placements[-1]
    assert (deepest.node_id, deepest.x, deepest.y) == (f"c{n - 1}", n - 1, 0.0)
    assert layout.placements[0].y == math.log2(n)
    svg = render_svg(layout)
    assert (svg.count(b"<circle"), svg.count(b"<line")) == (n, n - 1)
    # cutting at mid-depth leaves the unary parent as the new deepest leaf
    edited = apply_script({("s", "B"): tree},
                          [ScriptLine("s", Region.BACK, DeleteSubtree(f"c{n // 2}"))])
    assert edited[("s", "B")].node_count == n // 2
    assert serialize_dltree(edited[("s", "B")]) == _chain_text(thick[:n // 2]).encode()
    assert serialize_dltree(tree) == text.encode()
