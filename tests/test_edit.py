import random

import pytest

from dlview.core import BinaryNode, BinaryTree, Region
from dlview.detect import FlagKind, scan_tree
from dlview.edit import (
    DeleteLeaf,
    DeleteSubtree,
    EditScriptError,
    ExcludeCase,
    ScriptLine,
    TrimRoot,
    apply_script,
    delete_leaf,
    delete_subtree,
    format_script,
    parse_script,
    trim_root,
)
from dlview.ingest import ParseError, parse_dltree, serialize_dltree
from dlview.synth import GenParams, generate_tree, inject_anomaly

from conftest import random_binary_tree


def tree(root):
    return BinaryTree("s", Region.BACK, root)


def three_node():
    return tree(BinaryNode("r", 2.0, BinaryNode("a", 1.0), BinaryNode("b", 0.9)))


def test_delete_leaf_merges_parent_with_sibling():
    t = delete_leaf(three_node(), "a")
    assert t.node_count == 1
    assert t.root.node_id == "r"
    # parent 2.0 merges with survivor 0.9 -> mean
    assert t.root.thickness == pytest.approx(1.45)


def test_delete_leaf_mean_rule_example():
    t = tree(BinaryNode("g", 2.0,
                        BinaryNode("p", 1.0, BinaryNode("v", 3.5),
                                   BinaryNode("q", 0.9)),
                        BinaryNode("o", 1.5)))
    out = delete_leaf(t, "v")
    p = out.position("p")
    assert out.thickness[p] == pytest.approx(0.95)
    assert out.size[p] == 1
    assert out.node_count == t.node_count - 2  # leaf gone + merge


def test_delete_subtree_root_rejected_and_unknown():
    t = three_node()
    with pytest.raises(EditScriptError):
        delete_subtree(t, "r")
    with pytest.raises(KeyError):
        delete_subtree(t, "missing")


def test_delete_leaf_rejects_internal_node():
    t = tree(BinaryNode("r", 2.0,
                        BinaryNode("a", 1.0, BinaryNode("c", 0.5),
                                   BinaryNode("d", 0.5)),
                        BinaryNode("b", 0.9)))
    with pytest.raises(EditScriptError):
        delete_leaf(t, "a")


def test_delete_subtree_count_rule():
    t = tree(BinaryNode("r", 2.0,
                        BinaryNode("a", 1.0, BinaryNode("c", 0.5),
                                   BinaryNode("d", 0.5)),
                        BinaryNode("b", 0.9)))
    out = delete_subtree(t, "a")
    assert out.node_count == t.node_count - 3 - 1  # subtree + merge


def test_delete_under_phantom_root_drops_phantom():
    t = tree(BinaryNode("ph", None, BinaryNode("a", 1.0), BinaryNode("b", 0.9)))
    out = delete_subtree(t, "a")
    assert out.root.node_id == "b"
    assert out.node_count == 1


def test_trim_root_identity_and_levels():
    t = tree(BinaryNode("r", 2.0,
                        BinaryNode("a", 1.0, BinaryNode("c", 0.5),
                                   BinaryNode("d", 0.5)),
                        BinaryNode("b", 0.9)))
    assert trim_root(t, "r").root is t.root
    out = trim_root(t, "a")
    assert out.root.node_id == "a"
    assert out.node_count == 3
    assert out.level[out.position("c")] == t.level[t.position("c")] - 1
    with pytest.raises(KeyError):
        trim_root(t, "zz")


def test_edits_preserve_invariants_on_random_trees():
    rng = random.Random(8)
    for seed in range(100):
        t = generate_tree(GenParams(), seed=seed)  # full binary by construction
        ids = t.ids[1:]
        if not ids:
            continue
        target = rng.choice(ids)
        out = delete_subtree(t, target)
        for i in range(out.node_count):
            assert len(out.children(i)) in (0, 2)
        # format fidelity: edit then serialize/parse reaches a stable canon
        data = serialize_dltree(out)
        assert serialize_dltree(parse_dltree(data)) == data


def test_script_roundtrip_and_parse():
    script = [
        ScriptLine("s01", Region.BACK, DeleteSubtree("m1")),
        ScriptLine("s01", Region.LEFT, TrimRoot("n4")),
        ScriptLine("s02", Region.FRONT, DeleteLeaf("v9")),
        ScriptLine("s03", None, ExcludeCase()),
    ]
    text = format_script(script)
    back = parse_script(text)
    assert [(l.subject_id, l.region, l.op) for l in back] == \
           [(l.subject_id, l.region, l.op) for l in script]
    with pytest.raises(EditScriptError):
        parse_script("s01 B FROB n1\n")
    with pytest.raises(EditScriptError):
        parse_script("s01 B DELETE_LEAF\n")
    assert parse_script("# comment\n\n") == []


def test_apply_script_exclude_and_errors():
    corpus = {
        ("s01", "B"): three_node(),
        ("s01", "L"): three_node(),
        ("s02", "B"): three_node(),
    }
    out = apply_script(corpus, [ScriptLine("s01", None, ExcludeCase())])
    assert set(out) == {("s02", "B")}
    assert apply_script(corpus, []) == corpus
    with pytest.raises(EditScriptError):
        apply_script(corpus, [ScriptLine("nope", None, ExcludeCase())])
    with pytest.raises(EditScriptError):
        apply_script(corpus, [ScriptLine("s02", Region.LEFT, DeleteLeaf("a"))])
    with pytest.raises(EditScriptError):
        apply_script(corpus, [ScriptLine("s02", Region.BACK, DeleteLeaf("zz"))])


def test_script_errors_are_parse_errors_at_their_line():
    with pytest.raises(EditScriptError, match="^unknown operation 'FROB'$") as exc:
        parse_script("# fix\ns B FROB n1\n")
    assert isinstance(exc.value, ParseError) and (exc.value.line, exc.value.col) == (2, None)
    script = parse_script("s B DELETE_SUBTREE b\n\ns B DELETE_LEAF a\n")
    # deleting b merges its parent r with a, so a is gone
    with pytest.raises(EditScriptError, match="^node 'a' not in s/B$") as exc:
        apply_script({("s", "B"): three_node()}, script)
    assert (exc.value.line, exc.value.col) == (3, None)
    # a line built in code has no place in a file
    with pytest.raises(EditScriptError, match="^node 'zz' not in s/B$") as exc:
        apply_script({("s", "B"): three_node()}, [ScriptLine("s", Region.BACK, TrimRoot("zz"))])
    assert exc.value.line == 0


def test_untouched_trees_pass_through_bit_identically():
    corpus = {("s01", "B"): three_node(), ("s02", "B"): three_node()}
    out = apply_script(corpus, [ScriptLine("s01", Region.BACK, DeleteLeaf("a"))])
    assert serialize_dltree(out[("s02", "B")]) == \
           serialize_dltree(corpus[("s02", "B")])


@pytest.mark.parametrize("kind,verb", [
    (FlagKind.VEIN, "leaf"),
    (FlagKind.MISCONNECTION, "subtree"),
    (FlagKind.STARTING_POINT, "trim"),
])
def test_scripted_correction_clears_flags(kind, verb):
    """Applying the matching correction to an injected tree returns it to clean."""
    for seed in range(20):
        clean = generate_tree(GenParams(), seed=1000 + seed)
        try:
            dirty, locus = inject_anomaly(clean, kind, seed=seed)
        except Exception:
            continue
        assert scan_tree(dirty), "injection must flag"
        if kind is FlagKind.VEIN:
            fixed = delete_leaf(dirty, locus)
        elif kind is FlagKind.MISCONNECTION:
            fixed = delete_subtree(dirty, locus)
        else:
            fixed = trim_root(dirty, clean.root.node_id)
        assert scan_tree(fixed) == []
        for i in range(fixed.node_count):
            assert len(fixed.children(i)) in (0, 2)
