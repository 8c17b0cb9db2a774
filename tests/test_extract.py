import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlview
from dlview.core import RawVesselGraph, Region
from dlview.cli import main
from dlview.extract import extract_binary_tree
from dlview.ingest import parse_vess, serialize_dltree, serialize_vess

from conftest import random_vess_graph, vess_graph


def seg(sid, *radii):
    """A segment id and its points (i, 0, 0, radius), in flow order."""
    return sid, [(float(i), 0.0, 0.0, r) for i, r in enumerate(radii)]


def graph(segments, edges, roots, subject="s", region=Region.BACK):
    return vess_graph(subject, region, dict(segments), edges, roots)


def test_root_with_two_children_three_nodes():
    g = graph([seg("1", 0.5, 0.5), seg("2", 0.3, 0.3), seg("3", 0.2, 0.2)],
              [("1", "2"), ("1", "3")], ["1"])
    t = extract_binary_tree(g)
    assert t.node_count == 3
    assert t.root.node_id == "1"
    assert t.size == (3, 1, 1)  # two leaves under the root


def test_unary_chain_collapses_before_split():
    # A -> B -> C unary run collapses; C splits into D, E -> 3 nodes total
    g = graph([seg("A", 0.5, 0.5), seg("B", 0.4, 0.4), seg("C", 0.3, 0.3),
               seg("D", 0.2, 0.2), seg("E", 0.2, 0.2)],
              [("A", "B"), ("B", "C"), ("C", "D"), ("C", "E")], ["A"])
    t = extract_binary_tree(g)
    assert t.node_count == 3
    assert t.root.node_id == "A"
    assert {t.root.left.node_id, t.root.right.node_id} == {"D", "E"}


def test_chain_thickness_is_twice_pooled_median():
    g = graph([seg("A", 0.5, 0.5), seg("B", 0.3, 0.3)], [("A", "B")], ["A"])
    t = extract_binary_tree(g)
    assert t.root.thickness == pytest.approx(0.8)  # 2 * median(.5,.5,.3,.3)


# radii that repeat, sit at the subnormal end, or come near the float maximum
_RADII = st.sampled_from((5e-324, 1e-310, 2.5e-308, 0.25, 0.5, 1.0, 1.0 + 2**-52, 3.0,
                          sys.float_info.max / 3, sys.float_info.max / 2,
                          sys.float_info.max))
# a unary chain: the radii of each of its segments
_CHAINS = st.lists(st.lists(_RADII, min_size=2, max_size=4), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_CHAINS, st.sampled_from((0, 2, 3)).flatmap(
    lambda k: st.lists(_CHAINS, min_size=k, max_size=k)))
def test_each_trunk_is_twice_the_median_of_its_chains_radii(root, below):
    """A root chain that splits into zero, two or three chains: each trunk's
    thickness is 2 * statistics.median of the radii its chain pools, or the
    first trunk in preorder whose double is infinite is too thick."""
    heads = ["r0"] + [f"c{j}_0" for j in range(len(below))]
    segments, edges, chains = [], [], {}
    for head, chain in zip(heads, [root] + below):
        sids = [f"{head[:-1]}{i}" for i in range(len(chain))]
        segments += [seg(sid, *radii) for sid, radii in zip(sids, chain)]
        edges += zip(sids, sids[1:])
        if head != "r0":
            edges.append((f"r{len(root) - 1}", head))
        chains[head] = [r for radii in chain for r in radii]
    g = graph(segments, edges, ["r0"])
    expected = {head: 2 * statistics.median(radii) for head, radii in chains.items()}
    too_thick = [head for head, t in expected.items() if t == float("inf")]
    if too_thick:
        with pytest.raises(ValueError) as e:
            extract_binary_tree(g)
        assert str(e.value) == (f"trunk {too_thick[0]!r} is too thick: twice its median "
                                "radius is out of float range")
        return
    t = extract_binary_tree(g)
    assert {head: t.thickness[t.position(head)] for head in heads} == expected


def comb_order(node):
    """A node as its leaf id, or a (left, right) pair of the same."""
    if not node.children:
        return node.node_id
    return (comb_order(node.left), comb_order(node.right))


def split(parent, kids):
    return graph([seg(parent, 1.0, 1.0)] + [seg(k, 0.2, 0.2) for k in kids],
                 [(parent, k) for k in kids], [parent])


def test_polyfurcation_comb_order_examples():
    def order(kids):
        return comb_order(extract_binary_tree(split("0", kids)).root)

    assert order(["9", "4", "7"]) == ("4", ("7", "9"))
    assert order(["2", "1"]) == ("1", "2")
    assert order(["1", "2", "3", "4"]) == ("1", ("2", ("3", "4")))
    assert order(["4", "3", "2", "1"]) == ("1", ("2", ("3", "4")))
    t = extract_binary_tree(split("0", ["1", "2", "3", "4"]))
    assert (t.root.right.node_id, t.root.right.right.node_id) == ("0~1", "0~2")


def test_trifurcation_creates_comb_with_inherited_thickness():
    g = graph([seg("1", 1.0, 1.0), seg("4", 0.2, 0.2), seg("7", 0.3, 0.3),
               seg("9", 0.4, 0.4)],
              [("1", "9"), ("1", "4"), ("1", "7")], ["1"])
    t = extract_binary_tree(g)
    assert t.node_count == 5  # root + synthetic trunk + 3 leaves
    assert t.root.left.node_id == "4"
    comb = t.root.right
    assert comb.node_id == "1~1"
    assert comb.thickness == pytest.approx(t.root.thickness)
    assert comb.left.node_id == "7" and comb.right.node_id == "9"


def test_phantom_root_joins_two_trees():
    for roots in (["1", "2"], ["2", "1"]):
        g = graph([seg("1", 0.5, 0.5), seg("2", 1.0, 1.0)], [], roots)
        joined = extract_binary_tree(g)
        assert joined.node_count == 3
        assert joined.root.thickness is None
        # the lower segment id goes left, whatever the ROOT order
        assert joined.root.left.node_id == "1"
        assert joined.root.right.node_id == "2"


def test_phantom_root_requires_two_trees():
    one = extract_binary_tree(graph([seg("a", 0.5, 0.5)], [], ["a"]))
    assert one.root.node_id == "a" and one.root.thickness == pytest.approx(1.0)
    three = graph([seg("a", 0.5, 0.5), seg("b", 0.5, 0.5), seg("c", 0.5, 0.5)],
                  [], ["a", "b", "c"])
    with pytest.raises(ValueError):
        extract_binary_tree(three)


def test_phantom_root_takes_a_fresh_id():
    g = graph([seg("phantom", 0.5, 0.5), seg("q", 0.5, 0.5)], [], ["phantom", "q"])
    assert extract_binary_tree(g).root.node_id == "phantom~"


def test_two_root_graph_gets_phantom_root():
    g = graph([seg("1", 0.5, 0.5), seg("2", 0.4, 0.4)], [], ["1", "2"])
    t = extract_binary_tree(g)
    assert t.root.thickness is None
    assert t.node_count == 3


def test_three_roots_rejected():
    g = graph([seg("1", 0.5, 0.5), seg("2", 0.4, 0.4), seg("3", 0.3, 0.3)],
              [], ["1", "2", "3"])
    with pytest.raises(ValueError):
        extract_binary_tree(g)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        extract_binary_tree(RawVesselGraph("s", Region.BACK, (), (), (), (), {},
                                           frozenset(), ()))


def test_no_unary_internal_nodes_and_leaf_preservation():
    rng = random.Random(31337)
    for _ in range(200)[:200]:
        g = random_vess_graph(rng, max_segments=40)
        t = extract_binary_tree(g)
        children = {p: [] for p in g.segments}
        for p, c in g.edges:
            children[p].append(c)
        input_leaves = sum(1 for kids in children.values() if not kids)
        assert t.size.count(1) == input_leaves
        for i in range(t.node_count):
            assert len(t.children(i)) in (0, 2)


def test_extraction_matches_raw_graph_walker():
    from conftest import raw_graph_trunk_counts

    rng = random.Random(777)
    for _ in range(200):
        g = random_vess_graph(rng, max_segments=60)
        t = extract_binary_tree(g)
        node_count, leaf_count, desc = raw_graph_trunk_counts(g)
        assert t.node_count == node_count
        assert t.size.count(1) == leaf_count
        for head, expect in desc.items():
            assert t.size[t.position(head)] - 1 == expect


def test_extraction_is_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        g = random_vess_graph(rng, max_segments=30)
        a = serialize_dltree(extract_binary_tree(g))
        b = serialize_dltree(extract_binary_tree(g))
        assert a == b


# Two roots with one numeric value (9, 09) and three children of 9 with one
# numeric value (7, 07, 007): only the id string tells them apart.
TIED_IDS_VESS = """\
HEADER tie B
POINT p1 0 0 0 1.0
POINT p2 1 0 0 0.9
POINT p3 2 0 0 0.8
POINT p4 3 0 0 0.7
POINT p5 4 0 0 0.6
POINT p6 5 0 0 0.5
SEGMENT 9 p1 p2
SEGMENT 09 p2 p3
SEGMENT 7 p3 p4
SEGMENT 07 p4 p5
SEGMENT 007 p5 p6
CONNECT 9 7
CONNECT 9 07
CONNECT 9 007
ROOT 9
ROOT 09
"""
# extract the file, then print its canonical .vess form
_EXTRACT_AND_SERIALIZE = """\
import sys
from dlview.cli import main
from dlview.ingest import parse_vess, serialize_vess
vess, out = sys.argv[1:]
assert main(["extract", vess, "--out-dir", out]) == 0
sys.stdout.buffer.write(serialize_vess(parse_vess(open(vess, "rb").read())))
"""


def test_ids_with_one_numeric_value_order_the_same_under_every_hash_seed(tmp_path):
    vess = tmp_path / "tie.vess"
    vess.write_text(TIED_IDS_VESS)
    src = str(Path(dlview.__file__).parents[1])
    trees, canonical = set(), set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"out{seed}"
        run = subprocess.run([sys.executable, "-c", _EXTRACT_AND_SERIALIZE, str(vess), str(out)],
                             env=env, capture_output=True, check=True)
        trees.add((out / "tie_B.dltree").read_bytes())
        canonical.add(run.stdout)
    # equal numeric values order by the id string: 09 before 9, 007 < 07 < 7
    assert trees == {b"HEADER tie B\n(phantom:_,(09:1.7000),(9:1.9000,(007:1.1000),"
                     b"(9~1:1.9000,(07:1.3000),(7:1.5000))))\n"}
    assert len(canonical) == 1
    records = [line for line in canonical.pop().decode().splitlines()
               if not line.startswith(("HEADER", "POINT"))]
    assert records == ["SEGMENT 007 p1 p2", "SEGMENT 07 p3 p4", "SEGMENT 7 p5 p6",
                       "SEGMENT 09 p7 p8", "SEGMENT 9 p9 p10",
                       "CONNECT 9 007", "CONNECT 9 07", "CONNECT 9 7", "ROOT 09", "ROOT 9"]


def test_invalid_hand_built_graph_rejected():
    with pytest.raises(ValueError):
        extract_binary_tree(graph([seg("1", 0.5, 0.5), seg("2", 0.4, 0.4)],
                                  {("1", "2"), ("2", "1")}, ("1",)))


def test_deep_nested_splits_extract_without_recursion(tmp_path):
    # each split k hands a leaf to one side and the next split (a two-segment
    # unary chain) to the other; 1500 levels is past the default recursion limit
    depth = 1500
    segments = [seg("leaf", 0.1, 0.1)]
    edges = []
    for k in range(depth):
        segments += [seg(f"a{k}", 0.5, 0.5), seg(f"b{k}", 0.5, 0.5), seg(f"x{k}", 0.1, 0.1)]
        edges += [(f"a{k}", f"b{k}"), (f"b{k}", f"x{k}")]
        edges.append((f"b{k}", f"a{k + 1}" if k + 1 < depth else "leaf"))
    g = graph(segments, edges, ["a0"])
    t = extract_binary_tree(g)
    trunks = depth + depth + 1  # one per split, one leaf per split, the last leaf
    assert t.node_count == trunks
    assert t.size[t.position("a0")] - 1 == trunks - 1
    # the CLI also writes the tree out
    vess = tmp_path / "deep.vess"
    vess.write_bytes(serialize_vess(g))
    assert main(["extract", str(vess), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "s_B.dltree").read_bytes() == serialize_dltree(t)


def _named_vess(segments, connects, roots):
    """Two points per segment; the k-th segment's radius is 1 + k / 10."""
    lines = ["HEADER s B"]
    for k, sid in enumerate(segments):
        lines += [f"POINT {sid}a 0 0 0 {1 + k / 10}", f"POINT {sid}b 1 0 0 {1 + k / 10}"]
    lines += [f"SEGMENT {sid} {sid}a {sid}b" for sid in segments]
    lines += [f"CONNECT {p} {c}" for p, c in connects]
    lines += [f"ROOT {r}" for r in roots]
    return "\n".join(lines) + "\n"


_COMB_NAMED = (("5", "6", "7", "8", "9", "5~1"),
               (("5", "6"), ("5", "7"), ("5", "8"), ("6", "5~1"), ("6", "9")))


@pytest.mark.parametrize("roots, tree", [
    (("5",), b"(5:2.0000,(6:2.2000,(9:2.8000),(5~1:3.0000)),(5~1~:2.0000,(7:2.4000),(8:2.6000)))"),
    (("5", "10"), b"(phantom:_,(5:2.0000,(6:2.2000,(9:2.8000),(5~1:3.0000)),"
                  b"(5~1~:2.0000,(7:2.4000),(8:2.6000))),(10:3.2000))"),
], ids=["one-root", "two-roots"])
def test_a_comb_trunk_steps_aside_for_a_segment_trunk_of_its_name(tmp_path, roots, tree):
    # 5 splits three ways, so its synthetic trunk would be 5~1, the name of
    # the segment trunk under 6; it takes a '~' instead
    segments, connects = _COMB_NAMED
    vess = tmp_path / "comb.vess"
    vess.write_text(_named_vess(segments + roots[1:], connects, roots))
    assert main(["extract", str(vess), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "s_B.dltree").read_bytes() == b"HEADER s B\n" + tree + b"\n"


def test_a_comb_trunk_keeps_its_name_when_no_trunk_takes_it():
    # segment 5~1 continues the chain under 6, so no trunk is named after it
    text = _named_vess(("5", "6", "7", "8", "5~1"),
                       (("5", "6"), ("5", "7"), ("5", "8"), ("6", "5~1")), ("5",))
    assert serialize_dltree(extract_binary_tree(parse_vess(text))) == (
        b"HEADER s B\n(5:2.0000,(6:2.5000),(5~1:2.0000,(7:2.4000),(8:2.6000)))\n")
