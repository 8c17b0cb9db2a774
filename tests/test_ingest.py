import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlview.core import BinaryTree, Region
from dlview.ingest import (
    CycleError,
    DanglingReferenceError,
    DuplicateIdError,
    NegativeThicknessError,
    ParseError,
    SegmentTooShortError,
    SyntaxParseError,
    TooManyChildrenError,
    _parse_body,
    _walk_body,
    parse_dltree,
    parse_vess,
    serialize_dltree,
    serialize_vess,
)

from conftest import random_binary_tree, random_vess_graph

MINIMAL_VESS = """\
HEADER sub1 B
POINT p1 0 0 0 0.5
POINT p2 1 0 0 0.4
SEGMENT 1 p1 p2
ROOT 1
"""


def test_parse_minimal_vess():
    g = parse_vess(MINIMAL_VESS)
    assert g.subject_id == "sub1"
    assert g.region is Region.BACK
    assert set(g.segments) == {"1"}
    assert g.roots == ("1",)


def test_vess_cycle_error():
    text = MINIMAL_VESS.replace("ROOT 1", "") + """\
POINT p3 2 0 0 0.3
POINT p4 3 0 0 0.3
SEGMENT 2 p3 p4
CONNECT 1 2
CONNECT 2 1
ROOT 1
"""
    with pytest.raises((CycleError, DanglingReferenceError)):
        parse_vess(text)


def test_vess_median_radius_feeds_thickness():
    text = """\
HEADER s B
POINT p1 0 0 0 0.2
POINT p2 0 0 1 0.3
POINT p3 0 0 2 0.4
POINT p4 0 0 3 0.5
POINT p5 0 0 4 0.6
SEGMENT 9 p1 p2 p3 p4 p5
ROOT 9
"""
    from dlview.extract import extract_binary_tree

    tree = extract_binary_tree(parse_vess(text))
    assert tree.root.thickness == pytest.approx(0.8)


def test_vess_error_classes():
    with pytest.raises(SyntaxParseError):
        parse_vess("HEADER only_one_field\n")
    with pytest.raises(SyntaxParseError):
        parse_vess("HEADER s B\nWHAT 1 2\n")
    with pytest.raises(DanglingReferenceError):
        parse_vess("HEADER s B\nSEGMENT 1 p1 p2\nROOT 1\n")
    with pytest.raises(SegmentTooShortError):
        parse_vess("HEADER s B\nPOINT p1 0 0 0 1\nSEGMENT 1 p1\nROOT 1\n")
    with pytest.raises(ParseError):  # zero radius
        parse_vess("HEADER s B\nPOINT p1 0 0 0 0.0\n")
    with pytest.raises(DuplicateIdError):
        parse_vess("HEADER s B\nPOINT p1 0 0 0 1\nPOINT p1 0 0 0 1\n")


def test_vess_reports_line_numbers():
    try:
        parse_vess("HEADER s B\nPOINT p1 0 0 0 -1\n")
    except ParseError as e:
        assert e.line == 2
        assert (e.col, str(e)) == (None, "point 'p1' has radius -1.0 <= 0 (line 2)")
    else:
        pytest.fail("expected ParseError")


def test_parse_dltree_single_node():
    t = parse_dltree("HEADER s B\n(r:1.5)\n")
    assert t.node_count == 1
    assert t.root.thickness == 1.5


def test_parse_dltree_three_nodes_and_order():
    t = parse_dltree("HEADER s L\n(r:2.0,(a:1.0),(b:0.9))\n")
    assert t.node_count == 3
    assert t.root.left.node_id == "a"
    assert t.root.right.node_id == "b"
    assert serialize_dltree(t) == b"HEADER s L\n(r:2.0000,(a:1.0000),(b:0.9000))\n"


def test_parse_dltree_phantom_root():
    t = parse_dltree("HEADER s F\n(r:_,(a:1.2),(b:1.1))\n")
    assert t.root.thickness is None
    assert t.node_count == 3


def test_dltree_error_classes():
    with pytest.raises(TooManyChildrenError):
        parse_dltree("HEADER s B\n(r:1,(a:1),(b:1),(c:1))\n")
    with pytest.raises(DuplicateIdError):
        parse_dltree("HEADER s B\n(r:1,(a:1),(a:2))\n")
    with pytest.raises(NegativeThicknessError):
        parse_dltree("HEADER s B\n(r:-1)\n")
    with pytest.raises(SyntaxParseError):
        parse_dltree("HEADER s B\n(r:1\n")
    with pytest.raises(SyntaxParseError):
        parse_dltree("(r:1)\n")


def test_serialize_formats_four_decimals():
    t = parse_dltree("HEADER s B\n(r:1.25)\n")
    assert serialize_dltree(t) == b"HEADER s B\n(r:1.2500)\n"


def test_dltree_roundtrip_random():
    rng = random.Random(99)
    for _ in range(400):
        t = random_binary_tree(rng, max_nodes=48)
        data = serialize_dltree(t)
        t2 = parse_dltree(data)
        assert t2 == t
        assert serialize_dltree(t2) == data


def test_vess_roundtrip_random():
    rng = random.Random(123)
    for _ in range(200):
        g = random_vess_graph(rng, max_segments=25)
        data = serialize_vess(g)
        g2 = parse_vess(data)
        assert g2 == g
        assert serialize_vess(g2) == data


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dltree_token_deletion_rejected_or_changed(data):
    """Deleting one structural token never silently yields the same tree."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_binary_tree(rng, max_nodes=12, allow_phantom=False)
    text = serialize_dltree(t).decode()
    body_at = text.index("\n") + 1
    structural = [i for i in range(body_at, len(text)) if text[i] in "(),:"]
    idx = structural[data.draw(st.integers(0, len(structural) - 1))]
    mutated = text[:idx] + text[idx + 1:]
    try:
        t2 = parse_dltree(mutated)
    except ParseError:
        return
    assert serialize_dltree(t2) != serialize_dltree(t)


def test_deep_chain_roundtrip():
    # deeper than the default recursion limit
    text = "HEADER s B\n" + _chain_expr(2000) + "\n"
    t = parse_dltree(text)
    assert t.node_count == 2000
    assert serialize_dltree(parse_dltree(serialize_dltree(t))) == serialize_dltree(t)


def _chain_expr(n):
    expr = f"(k{n}:1.0000)"
    for i in range(n - 1, 0, -1):
        expr = f"(k{i}:1.0000,{expr})"
    return expr


_GAPS = (" ", "\t", " \t ", "\n", "\n\n", "\n# a comment line ( : )\n", "\n   ", "\t\n# c\n\t")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dltree_reflowed_body_parses_to_the_same_tree(data):
    """Whitespace, line breaks and comment lines between tokens change nothing."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_binary_tree(rng, max_nodes=40)
    header, body = serialize_dltree(t).decode().split("\n", 1)
    tokens = re.findall(r"[^(),:]+|[(),:]", body.strip())
    gaps = data.draw(st.lists(st.sampled_from(("",) + _GAPS),
                              min_size=len(tokens), max_size=len(tokens)))
    text = "# leading comment\n\n" + header + "\n" + "".join(
        g + tok for g, tok in zip(gaps, tokens)) + "\n# trailing comment\n"
    assert parse_dltree(text) == t


def test_dltree_errors_name_the_files_own_line_and_column():
    text = "HEADER s B\n# note\n(r:1.0,\n(a:1.0),\n(b:x))\n"
    with pytest.raises(SyntaxParseError, match="expected thickness number") as exc:
        parse_dltree(text)
    assert (exc.value.line, exc.value.col) == (5, 4)
    # a bad header after comment lines is reported at its own line
    with pytest.raises(SyntaxParseError, match="first non-comment line must be HEADER") as exc:
        parse_dltree("# one\n# two\n  HEADER s\n(r:1)\n")
    assert (exc.value.line, exc.value.col) == (3, 3)
    # a repeated id is reported at its second node
    with pytest.raises(DuplicateIdError) as exc:
        parse_dltree("HEADER s B\n(r:1,\n  (a:1),\n  (a:2))\n")
    assert (exc.value.line, exc.value.col) == (4, 3)
    # a tree cut short is reported just after its last token
    with pytest.raises(SyntaxParseError, match="expected '\\)'") as exc:
        parse_dltree("HEADER s B\n(r:1,\n (a:1)\n\n# end\n")
    assert (exc.value.line, exc.value.col) == (3, 7)


HUGE = "9" * 400  # float() reads it as inf


def test_dltree_thickness_past_float_range_is_located():
    with pytest.raises(SyntaxParseError, match="node 'b' has a thickness out of float range") as exc:
        parse_dltree(f"HEADER s B\n(a:1.0,(b:{HUGE}))\n")
    assert (exc.value.line, exc.value.col) == (2, 11)
    with pytest.raises(SyntaxParseError) as exc:
        parse_dltree(f"HEADER s B\n# note\n(a:1.0,\n  (b:\t{HUGE}))\n")
    assert (exc.value.line, exc.value.col) == (4, 7)


def test_vess_numbers_past_float_range_name_their_line():
    for point in (f"POINT p1 0 {HUGE} 0 1", f"POINT p1 0 0 -{HUGE} 1", f"POINT p1 0 0 0 {HUGE}"):
        with pytest.raises(ParseError) as exc:
            parse_vess(f"HEADER s B\n# note\n{point}\n")
        assert exc.value.line == 3 and "non-finite coordinate/radius" in str(exc.value)


@st.composite
def tree_bodies(draw):
    """The .dltree body of a random tree: bushy, a unary chain or a comb, with
    ids that may use every id character and, sometimes, a phantom root."""
    n = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(("bushy", "chain", "comb")))
    if shape == "bushy":
        size = random_binary_tree(random.Random(draw(st.integers(0, 10**6))), n).size
    elif shape == "chain":
        size = tuple(range(n, 0, -1))
    else:  # each node holds a leaf on the left and the rest of the comb on the right
        size = tuple(1 if i % 2 else n - i for i in range(n))
    mark = draw(st.text(".+~-aZ9", max_size=3))
    ids = [f"{i}{mark}" for i in range(len(size))]
    thickness = draw(st.lists(st.sampled_from((0.0, 5e-5, 1.25, 1e300)) | st.floats(0, 10),
                              min_size=len(size), max_size=len(size)))
    if size[0] > 1 and size[1] < size[0] - 1 and draw(st.booleans()):
        thickness[0] = None
    tree = BinaryTree("s", Region.BACK, ids=ids, thickness=thickness, size=size)
    return serialize_dltree(tree).decode().split("\n")[1]


# single characters, a whole node (a third child where it lands after a
# second), and digit runs past float range
_EDIT_TEXT = st.sampled_from([*" \t(),:_-.0123456789", ",(q:1)", "9" * 310, "9" * 400])


@st.composite
def edited_bodies(draw):
    """A tree body after zero to three random inserts, deletions and replacements."""
    body = draw(tree_bodies())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(body)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        cut = draw(st.integers(1, 4)) if op == "delete" else int(op == "replace")
        body = body[:i] + ("" if op == "delete" else draw(_EDIT_TEXT)) + body[i + cut:]
    return body


def _outcome(parse, body):
    try:
        return parse(body, lambda pos: (1, pos + 1))
    except ParseError as e:
        return type(e), str(e), e.line, e.col


@settings(max_examples=400, deadline=None)
@given(edited_bodies())
@example("(1:3.8000)\t")  # a tree, then trailing input after its last ')'
@example("(r:_,(a:1.0),(b:2.0))")
@example("(r:1.0,(a:_))")
@example("(r:1.0,(a:-0.5))")
@example("(a:1),(b:1)")  # a second tree
@example("(r:1,(a:1)))")  # one ')' too many
@example("(r:1,(a:1))),(b:1,(c:1)")  # one ')' too many, one too few
@example("(r:1.0,(a:1.0),(b:1.0),(c:1.0))")
def test_split_parse_matches_the_node_walker(body):
    """The one-split parse returns the walker's lists, or the walker's own error."""
    assert _outcome(_parse_body, body) == _outcome(_walk_body, body)
