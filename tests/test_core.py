import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlview.core import (
    BinaryNode,
    BinaryTree,
    CorpusEntry,
    RawVesselGraph,
    Region,
    TreeError,
    UnknownNodeError,
    _id_sort_key,
    _with_parent,
)

from conftest import brute_descendants, random_binary_tree


def chain(n):
    node = None
    for i in range(n, 0, -1):
        node = BinaryNode(f"c{i}", 1.0, node)
    return BinaryTree("s", Region.BACK, node)


def complete7():
    leaves = [BinaryNode(f"l{i}", 0.5) for i in range(4)]
    m = [BinaryNode(f"m{i}", 1.0, leaves[2 * i], leaves[2 * i + 1]) for i in range(2)]
    return BinaryTree("s", Region.BACK, BinaryNode("r", 2.0, m[0], m[1]))


def test_a_handed_parent_list_is_the_cached_parent():
    """_with_parent relies on parent being a non-data cached_property: a
    plain property, slot or field would refuse the list or go stale."""
    assert isinstance(BinaryTree.__dict__["parent"], functools.cached_property)
    t = complete7()
    derived = BinaryTree("s", Region.BACK, ids=t.ids, thickness=t.thickness,
                         size=t.size).parent
    handed = list(derived)
    assert _with_parent(t, handed) is t and t.parent is handed
    assert t.level == [0, 1, 2, 2, 1, 2, 2]


def test_leaf_has_no_descendants():
    t = complete7()
    assert t.size[t.position("l0")] - 1 == 0


def test_complete_tree_root_descendants():
    t = complete7()
    assert t.size[t.position("r")] - 1 == 6
    assert t.size[t.position("m1")] - 1 == 2


def test_chain_descendants_and_levels():
    t = chain(5)
    assert t.size[t.position("c1")] - 1 == 4
    assert t.level[t.position("c1")] == 0
    assert t.level[t.position("c5")] == 4


def test_root_and_child_levels():
    t = complete7()
    assert t.level[t.position("r")] == 0
    assert t.level[t.position("m0")] == 1


def test_unknown_node_raises():
    t = complete7()
    with pytest.raises(UnknownNodeError):
        t.position("nope")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_corpus_entry_needs_a_finite_covariate(bad):
    with pytest.raises(ValueError, match="^covariate must be finite$"):
        CorpusEntry(complete7(), bad)


_GOOD_POINTS = {"x": (0.0, 1.0), "y": (0.0, 0.0), "z": (0.0, 0.0), "radius": (1.0, 0.5)}
NAN, INF = math.nan, math.inf


_BAD_POINT = r"point row {} \({}\) needs finite values, radius > 0"
_BAD_SEGMENT = r"segment '1' needs >= 2 points, in int rows 0\.\.1"


@pytest.mark.parametrize("bad, rows, problem", [
    ({"radius": (1.0, 0.0)}, (0, 1), _BAD_POINT.format(1, "1.0, 0.0, 0.0, 0.0")),
    ({"radius": (-0.5, 1.0)}, (0, 1), _BAD_POINT.format(0, "0.0, 0.0, 0.0, -0.5")),
    ({"x": (0.0, NAN)}, (0, 1), _BAD_POINT.format(1, "nan, 0.0, 0.0, 0.5")),
    ({"y": (NAN, -1.0)}, (0, 1), _BAD_POINT.format(0, "0.0, nan, 0.0, 1.0")),
    ({"radius": (1.0, NAN)}, (0, 1), _BAD_POINT.format(1, "1.0, 0.0, 0.0, nan")),
    ({"z": (0.0, INF)}, (0, 1), _BAD_POINT.format(1, "1.0, 0.0, inf, 0.5")),
    ({"x": (-INF, 0.0)}, (0, 1), _BAD_POINT.format(0, "-inf, 0.0, 0.0, 1.0")),
    ({"radius": (INF, 1.0)}, (0, 1), _BAD_POINT.format(0, "0.0, 0.0, 0.0, inf")),
    ({}, (0,), _BAD_SEGMENT),
    ({}, (0, 2), _BAD_SEGMENT),
    ({}, (-1, 0), _BAD_SEGMENT),
    ({"z": (0.0,)}, (0, 1), r"point columns differ in length: \[2, 2, 1, 2\]"),
], ids=["radius-0", "negative-radius", "nan-x", "nan-first", "nan-radius", "inf-z", "minus-inf-x",
        "inf-radius", "1-point-segment", "row-past-end", "negative-row", "unequal-columns"])
def test_a_graph_with_bad_points_cannot_be_built(bad, rows, problem):
    columns = {**_GOOD_POINTS, **bad}
    with pytest.raises(ValueError, match=problem):
        RawVesselGraph("s", Region.BACK, **columns, segments={"1": rows},
                       edges=frozenset(), roots=("1",))


@pytest.mark.parametrize("row", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_a_segment_row_must_be_an_int(row):
    # a float row would fail later as a tuple index, and True would read row 1
    with pytest.raises(ValueError, match=r"segment '2' needs >= 2 points, in int rows 0\.\.1"):
        RawVesselGraph("s", Region.BACK, **_GOOD_POINTS, segments={"1": (0, 1), "2": (0, row)},
                       edges=frozenset({("1", "2")}), roots=("1",))


def test_a_graph_holds_its_points_as_tuple_columns():
    # a row two segments share and a row no segment uses are kept as they are
    g = RawVesselGraph("s", Region.BACK, [0.0, 1.0, 2.0], [0.0] * 3, [0.0] * 3, [1.0, 0.5, 0.25],
                       {"1": (0, 1), "2": (1, 0)}, frozenset({("1", "2")}), ("1",))
    assert (g.x, g.y, g.radius) == ((0.0, 1.0, 2.0), (0.0,) * 3, (1.0, 0.5, 0.25))
    assert g.segments == {"1": (0, 1), "2": (1, 0)}
    # finite values whose column sum overflows are finite
    huge = RawVesselGraph("s", Region.BACK, (1e308, 1e308), (-1e308, -1e308), (0.0, 0.0),
                          (1e308, 1e308), {"1": (0, 1)}, frozenset(), ("1",))
    assert huge.radius == (1e308, 1e308)


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValueError):
        BinaryTree("s", Region.BACK,
                   BinaryNode("a", 1.0, BinaryNode("a", 1.0)))


def test_array_tree_refuses_a_negative_thickness():
    with pytest.raises(TreeError, match="negative thickness -0.5 on node 'a'") as exc:
        BinaryTree("s", Region.BACK, ids=("r", "a", "b"),
                   thickness=(1.0, -0.5, math.nan), size=(3, 1, 1))
    assert exc.value.node == 1


def test_array_tree_refuses_a_nan_thickness():
    # NaN in front of a negative value hides it from min, but not from sum
    for thickness, node in (((1.0, 0.5, math.nan), 2), ((math.nan, 0.5, -1.0), 0),
                            ((None, math.nan, 2.0), 1)):
        with pytest.raises(TreeError, match="NaN thickness") as exc:
            BinaryTree("s", Region.BACK, ids=("r", "a", "b"),
                       thickness=thickness, size=(3, 1, 1))
        assert exc.value.node == node


def test_phantom_root_needs_two_children():
    with pytest.raises(ValueError):
        BinaryTree("s", Region.BACK, BinaryNode("p", None, BinaryNode("a", 1.0)))


def test_node_count_autofill_and_check():
    t = complete7()
    assert t.node_count == 7


def test_descendant_count_matches_brute_force_on_random_trees():
    rng = random.Random(2024)
    for _ in range(300):
        t = random_binary_tree(rng, max_nodes=80)
        for i in range(t.node_count):
            assert t.size[i] - 1 == brute_descendants(t.subtree(i).root)


def test_descendant_recurrence_and_level_bound():
    rng = random.Random(7)
    for _ in range(100):
        t = random_binary_tree(rng, max_nodes=60)
        for i in range(t.node_count):
            kids = t.children(i)
            assert t.size[i] - 1 == sum(t.size[c] - 1 for c in kids) + len(kids)
        assert brute_descendants(t.root) + 1 == t.node_count
        assert max(t.level) < t.node_count


def test_repr_eq_hash_of_a_deep_chain():
    a, b = chain(10_000), chain(10_000)
    assert a == b and hash(a) == hash(b)
    assert a != chain(9_999)
    assert repr(a).startswith("BinaryTree(subject_id='s', region=<Region.BACK: 'B'>, ids=(")


def _graph(declared, edges, roots):
    # every segment runs twice through the one point
    return RawVesselGraph("s", Region.BACK, (0.0,), (0.0,), (0.0,), (1.0,),
                          {sid: (0, 0) for sid in declared}, frozenset(edges), tuple(roots))


# numeric ids by value, equal values by the id string, then the others as
# strings ("²" is a digit but not a decimal, so not numeric)
ID_ORDER = ("1", "2", "007", "07", "7", "9", "10", "10a", "B", "a", "a1", "x~1", "²")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ID_ORDER), min_size=2, max_size=4, unique=True))
def test_children_are_sorted_by_id(kids):
    """Numeric ids in numeric order, ties in string order, then the others in
    string order."""
    g = _graph(["p", *kids], (("p", k) for k in kids), ("p",))
    assert g.children_of("p") == tuple(sorted(kids, key=ID_ORDER.index))
    assert all(g.children_of(k) == () for k in kids)


@settings(max_examples=100, deadline=None)
@given(st.permutations(("10", "9", "a", "007")))
def test_roots_are_sorted_by_id_so_their_order_is_not_the_value(roots):
    g = _graph(roots, (), roots)
    assert g.roots == ("007", "9", "10", "a")
    assert g == _graph(roots, (), sorted(roots))


def test_tied_numeric_ids_sort_by_the_id_string():
    # a graph meets its tied children in frozenset order, which one process
    # may never vary; a stable sort without the tie-break keeps each input order
    for ids in itertools.permutations(("7", "07", "007", "x")):
        assert sorted(ids, key=_id_sort_key) == ["007", "07", "7", "x"]


@pytest.mark.parametrize("declared, edges, roots, problem", [
    (("1",), (), (), "graph has no roots"),
    (("1",), (), ("1", "x"), r"undeclared segments: \['x'\]"),
    (("1",), (), ("1", "1"), "segment '1' reachable twice"),
    (("1", "2"), (("1", "2"),), ("1", "2"), "segment '2' reachable twice"),
    (("1", "2", "3"), (("1", "3"), ("2", "3")), ("1", "2"), "segment '3' reachable twice"),
    (("1", "2", "3"), (("2", "3"), ("3", "2")), ("1",),
     r"segments not reachable from any root: \['2', '3'\]"),
    (("1", "2"), (("1", "2"), ("2", "2")), ("1",), "segment '2' reachable twice"),
    (("1", "2"), (), ("1",), r"segments not reachable from any root: \['2'\]"),
    (("1",), (("x", "1"),), ("1",), r"undeclared segments: \['x'\]"),
    (("1",), (("1", "x"),), ("1",), r"undeclared segments: \['x'\]"),
], ids=["no-roots", "undeclared-root", "repeated-root", "root-with-parent", "two-parents",
        "2-cycle", "self-loop", "orphan", "unknown-edge-parent", "unknown-edge-child"])
def test_a_graph_that_is_not_a_forest_cannot_be_built(declared, edges, roots, problem):
    with pytest.raises(ValueError, match=problem):
        _graph(declared, edges, roots)


def _is_forest(declared, edges, roots):
    """Independent oracle: roots are distinct declared segments without a
    parent, every other declared segment has exactly one declared parent, and
    following parents from any segment ends at a root."""
    parents = {}
    for p, c in edges:
        if p not in declared or c not in declared or c in parents:
            return False
        parents[c] = p
    if not roots or len(set(roots)) != len(roots) or not set(roots) <= set(declared):
        return False
    if set(parents) != set(declared) - set(roots):
        return False
    for sid in declared:
        for _ in range(len(declared)):
            if sid not in parents:
                break
            sid = parents[sid]
        if sid not in roots:
            return False
    return True


_IDS = st.sampled_from(("1", "2", "3", "4", "x"))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(("1", "2", "3", "4")), min_size=1, max_size=4, unique=True),
       st.sets(st.tuples(_IDS, _IDS), max_size=5), st.lists(_IDS, max_size=3))
def test_a_graph_is_built_exactly_when_it_is_a_forest(declared, edges, roots):
    try:
        _graph(declared, edges, roots)
    except ValueError:
        built = False
    else:
        built = True
    assert built == _is_forest(declared, edges, roots)
