"""Property tests: the preorder-array readers and splice edits against
brute-force recursive oracles."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlview.core import BinaryNode, BinaryTree, Region, descendant_count, node_level
from dlview.detect import (
    DetectorConfig,
    FlagKind,
    FlagRecord,
    detect_misconnection,
    scan_tree,
)
from dlview.edit import DeleteSubtree, EditScriptError, ScriptLine, apply_script, delete_subtree
from dlview.ingest import parse_dltree, serialize_dltree
from dlview.layout import (
    DlNodePlacement,
    apply_jitter,
    build_layout,
    color_bin,
    y_coordinate,
)
from dlview.render import render_svg

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
                    flags.append(FlagRecord(tree.subject_id, tree.region.value,
                                            FlagKind.MISCONNECTION, node.node_id,
                                            med - parent.thickness))
                    return
        for c in node.children:
            walk(c, node)

    walk(tree.root, None)
    return flags


def brute_layout(tree):
    placements, edges = [], []

    def walk(node, level):
        y = y_coordinate(brute_descendants(node))
        cb = None if node.thickness is None else color_bin(node.thickness)
        placements.append(DlNodePlacement(node.node_id, level, y, y, cb))
        for c in node.children:
            edges.append((node.node_id, c.node_id))
            walk(c, level + 1)

    walk(tree.root, 0)
    return apply_jitter(placements, tree.subject_id, tree.region.value), edges


@settings(max_examples=150, deadline=None)
@given(trees)
def test_descendant_count_and_level_match_brute_force(tree):
    levels = brute_levels(tree.root)
    for node in tree.nodes():
        assert descendant_count(tree, node.node_id) == brute_descendants(node)
        assert node_level(tree, node.node_id) == levels[node.node_id]
        parent = tree.parent_id(node.node_id)
        assert (parent is None) == (node is tree.root)
        if parent is not None:
            assert any(c is node for c in tree.node(parent).children)


@settings(max_examples=150, deadline=None)
@given(trees, st.sampled_from([0.05, 0.3, 1.0]), st.integers(1, 6))
def test_misconnection_matches_brute_force_in_order(tree, epsilon, min_subtree):
    config = DetectorConfig(epsilon_mm=epsilon, misconnection_min_subtree=min_subtree)
    assert detect_misconnection(tree, config) == brute_misconnection(
        tree, epsilon, min_subtree)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_layout_matches_brute_force(tree):
    layout = build_layout(tree)
    placements, edges = brute_layout(tree)
    assert list(layout.placements) == placements
    assert list(layout.edges) == edges
    thick = [n.thickness for n in tree.nodes() if n.thickness is not None]
    assert (layout.thickness_min, layout.thickness_max) == (min(thick), max(thick))


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
    return [(n.node_id, n.thickness, [c.node_id for c in n.children]) for n in tree.nodes()]


@settings(max_examples=200, deadline=None)
@given(trees, st.data())
def test_path_copy_edits_match_recursive_oracles(tree, data):
    target = data.draw(st.sampled_from([n.node_id for n in tree.nodes()]))
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
    assert len(layout.placements) == n and len(layout.edges) == n - 1
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
