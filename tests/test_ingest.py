import dataclasses
import math
import random
import re
import sys
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlview import ingest
from dlview.core import BinaryTree, Region
from dlview.detect import flags_from_tsv, flags_to_tsv, scan_tree
from dlview.edit import apply_script, parse_script
from dlview.ingest import (
    ParseError,
    _BLOCK,
    _parse_body,
    _read_vess,
    _walk_body,
    _walk_vess,
    parse_dltree,
    parse_vess,
    serialize_dltree,
    serialize_vess,
)
from dlview.layout import build_layout
from dlview.render import render_svg

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
    with pytest.raises(ParseError, match=r"^CONNECT 2 1 closes a cycle$") as exc:
        parse_vess(text)
    assert (exc.value.line, exc.value.col) == (10, None)


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
    for text, message, line in [
        ("HEADER only_one_field\n", "HEADER needs <subject_id> <region>", 1),
        ("HEADER s B\nWHAT 1 2\n", "unknown record 'WHAT'", 2),
        ("HEADER s B\nSEGMENT 1 p1 p2\nROOT 1\n", "unknown point id 'p1'", 2),
        ("HEADER s B\nPOINT p1 0 0 0 1\nSEGMENT 1 p1\nROOT 1\n",
         "segment '1' has 1 point(s), needs >= 2", 3),
        ("HEADER s B\nPOINT p1 0 0 0 0.0\n", "point 'p1' has radius 0.0 <= 0", 2),
        ("HEADER s B\nPOINT p1 0 0 0 1\nPOINT p1 0 0 0 1\n", "duplicate point id 'p1'", 3),
        ("# no header\n", "missing HEADER record", 0),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as exc:
            parse_vess(text)
        assert (exc.value.line, exc.value.col) == (line, None)


def test_vess_reports_line_numbers():
    try:
        parse_vess("HEADER s B\nPOINT p1 0 0 0 -1\n")
    except ParseError as e:
        assert e.line == 2
        assert (e.col, str(e)) == (None, "point 'p1' has radius -1.0 <= 0")
    else:
        pytest.fail("expected ParseError")
    # a form feed ends a record but not a line
    with pytest.raises(ParseError, match="'p2' has radius -1.0") as exc:
        parse_vess("HEADER s B\nPOINT p1 0 0 0 1\x0cPOINT p2 0 0 0 -1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match=r"^point 'p2' has radius -1.0 <= 0$") as exc:
        parse_vess("HEADER s B\r\n\rPOINT p1 0 0 0 1\u2028\x85POINT p2 0 0 0 -1\r\n")
    assert exc.value.line == 3


def test_vess_second_header_is_an_error_at_its_line():
    with pytest.raises(ParseError, match=r"^more than one HEADER record$") as exc:
        parse_vess(MINIMAL_VESS.replace("ROOT 1\n", "# c\nHEADER t F\nROOT 1\n"))
    assert exc.value.line == 6


def test_vess_root_with_a_parent_names_the_later_record():
    connect, root = "CONNECT 1 2\n", "ROOT 2\n"
    head = _V2.replace("CONNECT 1 2\n", "")
    for first, second in ((connect, root), (root, connect)):
        with pytest.raises(ParseError, match="root '2' has a parent") as exc:
            parse_vess(head + first + "# c\n" + second)
        assert exc.value.line == 9


BAD_SUBJECTS = ["../../escaped", "sub/dir", "#x", ".hidden", "_a", "-a", "~a",
                "a:b", "a,b", "a(b", "a*b", "a\\b", "é"]
GOOD_SUBJECTS = ["0", "s000", "sub_1", "A.b_c+d~e-f", "x" * 300]


@pytest.mark.parametrize("subject", BAD_SUBJECTS)
def test_a_subject_outside_the_grammar_is_a_located_parse_error(subject):
    message = re.escape(f"bad subject id {subject!r}")
    with pytest.raises(ParseError, match=message) as exc:
        parse_dltree(f"# c\nHEADER {subject} B\n(r:1.0)\n")
    assert (exc.value.line, exc.value.col) == (2, 1)
    vess = "# c\n" + MINIMAL_VESS.replace("sub1", subject)
    assert _read_vess(vess) is None  # the walker locates the error
    with pytest.raises(ParseError, match=message) as exc:
        parse_vess(vess)
    assert exc.value.line == 2
    tree = BinaryTree(subject, Region.BACK, ids=("r",), thickness=(1.0,), size=(1,))
    with pytest.raises(ValueError, match=message):
        serialize_dltree(tree)
    graph = dataclasses.replace(parse_vess(MINIMAL_VESS), subject_id=subject)
    with pytest.raises(ValueError, match=message):
        serialize_vess(graph)


@pytest.mark.parametrize("subject", GOOD_SUBJECTS)
def test_a_subject_in_the_grammar_reads_back(subject):
    tree = BinaryTree(subject, Region.LEFT, ids=("r", "a"), thickness=(2.0, 1.0), size=(2, 1))
    assert parse_dltree(serialize_dltree(tree)) == tree
    graph = dataclasses.replace(parse_vess(MINIMAL_VESS), subject_id=subject)
    assert _read_vess(serialize_vess(graph).decode()) == parse_vess(serialize_vess(graph)) == graph


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
    for text, message, place in [
        ("HEADER s B\n(r:1,(a:1),(b:1),(c:1))\n", "node 'r' has 3 children", (2, 23)),
        ("HEADER s B\n(r:1,(a:1),(a:2))\n", "duplicate node_id 'a'", (2, 12)),
        ("HEADER s B\n(r:-1)\n", "node 'r' has negative thickness", (2, 4)),
        ("HEADER s B\n(r:1\n", "expected ')'", (2, 5)),
        ("(r:1)\n", "first non-comment line must be HEADER <subject_id> <region>", (1, 1)),
        ("", "empty .dltree file", (0, None)),
        ("# a comment\n\n", "empty .dltree file", (0, None)),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as exc:
            parse_dltree(text)
        assert (exc.value.line, exc.value.col) == place


def test_dltree_tree_check_errors_take_class_and_node_from_the_check():
    # node ids that read like the words of another check's message
    with pytest.raises(ParseError, match="duplicate node_id 'lacks'") as exc:
        parse_dltree("HEADER s B\n(r:1,(lacks:1),(lacks:2))\n")
    assert (exc.value.line, exc.value.col) == (2, 16)
    with pytest.raises(ParseError, match="node 'duplicate' lacks thickness") as exc:
        parse_dltree("HEADER s B\n(r:1,(duplicate:_))\n")
    assert (exc.value.line, exc.value.col) == (2, 6)


def test_serialize_formats_four_decimals():
    t = parse_dltree("HEADER s B\n(r:1.25)\n")
    assert serialize_dltree(t) == b"HEADER s B\n(r:1.2500)\n"


@pytest.mark.parametrize("bad", ["a b", "a\nb", "", " a", "b "])
def test_serialize_names_an_id_outside_the_grammar(bad):
    # the ids are checked joined by " ": an id that holds a " " or is empty
    # must not pass as two ids, or as none
    for ids, size in (((bad,), (1,)), (("r", "a", bad), (3, 1, 1))):
        tree = BinaryTree("s", Region.BACK, ids=ids, thickness=(1.0,) * len(ids), size=size)
        with pytest.raises(ValueError, match=f"node id {re.escape(repr(bad))} is outside"):
            serialize_dltree(tree)


def test_serialize_refuses_an_infinite_thickness():
    # the parser reads no thickness past float range, so inf would not read back
    t = BinaryTree("s", Region.BACK, ids=("r", "a", "b"),
                   thickness=(1.0, 0.5, math.inf), size=(3, 1, 1))
    with pytest.raises(ValueError, match="node 'b' has an infinite thickness"):
        serialize_dltree(t)


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


def test_graphs_are_equal_by_columns_and_serialize_by_value():
    # the same points in another row order, with a shared and an unused row
    text = ("HEADER s B\nPOINT a 0 0 0 1.0\nPOINT b 1 0 0 0.5\nPOINT c 2 0 0 0.25\n"
            "SEGMENT 1 a b\nSEGMENT 2 b c\nCONNECT 1 2\nROOT 1\n")
    other = ("HEADER s B\nPOINT u 9 9 9 9.0\nPOINT c 2 0 0 0.25\nPOINT b 1 0 0 0.5\n"
             "POINT a 0 0 0 1.0\nSEGMENT 1 a b\nSEGMENT 2 b c\nCONNECT 1 2\nROOT 1\n")
    g, h = parse_vess(text), parse_vess(other)
    assert (g.x, g.segments) == ((0.0, 1.0, 2.0), {"1": (0, 1), "2": (1, 2)})
    assert (h.x, h.segments) == ((9.0, 2.0, 1.0, 0.0), {"1": (3, 2), "2": (2, 1)})
    assert g != h
    assert serialize_vess(g) == serialize_vess(h) == (
        b"HEADER s B\nPOINT p1 0.0 0.0 0.0 1.0\nPOINT p2 1.0 0.0 0.0 0.5\n"
        b"POINT p3 1.0 0.0 0.0 0.5\nPOINT p4 2.0 0.0 0.0 0.25\n"
        b"SEGMENT 1 p1 p2\nSEGMENT 2 p3 p4\nCONNECT 1 2\nROOT 1\n")


def test_graphs_that_differ_only_in_root_order_are_equal():
    records = "HEADER s B\nPOINT a 0 0 0 1.0\nPOINT b 1 0 0 0.5\nSEGMENT 10 a b\nSEGMENT 9 b a\n"
    g, h = parse_vess(records + "ROOT 10\nROOT 9\n"), parse_vess(records + "ROOT 9\nROOT 10\n")
    assert g.roots == h.roots == ("9", "10")
    assert g == h
    assert serialize_vess(g) == serialize_vess(h)


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
    with pytest.raises(ParseError, match="expected thickness number") as exc:
        parse_dltree(text)
    assert (exc.value.line, exc.value.col) == (5, 4)
    # a bad header after comment lines is reported at its own line
    with pytest.raises(ParseError, match="first non-comment line must be HEADER") as exc:
        parse_dltree("# one\n# two\n  HEADER s\n(r:1)\n")
    assert (exc.value.line, exc.value.col) == (3, 3)
    # a repeated id is reported at its second node
    with pytest.raises(ParseError, match=r"^duplicate node_id 'a'$") as exc:
        parse_dltree("HEADER s B\n(r:1,\n  (a:1),\n  (a:2))\n")
    assert (exc.value.line, exc.value.col) == (4, 3)
    # a form feed joins the body like a line break, but the line goes on
    with pytest.raises(ParseError, match="^node 'b' has negative thickness$") as exc:
        parse_dltree("HEADER s B\n(a:1.0,\x0c(b:-1.0))\n")
    assert (exc.value.line, exc.value.col) == (2, 12)
    with pytest.raises(ParseError, match="^node 'b' has negative thickness$") as exc:
        parse_dltree("HEADER s B\r\n\r  (a:1.0,\x1e\t(b:-1.0))\n")
    assert (exc.value.line, exc.value.col) == (3, 15)
    # a tree cut short is reported just after its last token
    with pytest.raises(ParseError, match="expected '\\)'") as exc:
        parse_dltree("HEADER s B\n(r:1,\n (a:1)\n\n# end\n")
    assert (exc.value.line, exc.value.col) == (3, 7)


HUGE = "9" * 400  # float() reads it as inf


def test_dltree_thickness_past_float_range_is_located():
    with pytest.raises(ParseError, match="node 'b' has a thickness out of float range") as exc:
        parse_dltree(f"HEADER s B\n(a:1.0,(b:{HUGE}))\n")
    assert (exc.value.line, exc.value.col) == (2, 11)
    with pytest.raises(ParseError, match="^node 'b' has a thickness out of float range$") as exc:
        parse_dltree(f"HEADER s B\n# note\n(a:1.0,\n  (b:\t{HUGE}))\n")
    assert (exc.value.line, exc.value.col) == (4, 7)


def test_vess_numbers_past_float_range_name_their_line():
    for point in (f"POINT p1 0 {HUGE} 0 1", f"POINT p1 0 0 -{HUGE} 1", f"POINT p1 0 0 0 {HUGE}"):
        with pytest.raises(ParseError) as exc:
            parse_vess(f"HEADER s B\n# note\n{point}\n")
        assert exc.value.line == 3 and "non-finite coordinate/radius" in str(exc.value)


def _sizes(draw):
    """Preorder subtree sizes of a random tree: bushy, a unary chain or a comb."""
    n = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(("bushy", "chain", "comb")))
    if shape == "bushy":
        return random_binary_tree(random.Random(draw(st.integers(0, 10**6))), n).size
    if shape == "chain":
        return tuple(range(n, 0, -1))
    # each node holds a leaf on the left and the rest of the comb on the right
    return tuple(1 if i % 2 else n - i for i in range(n))


@st.composite
def tree_bodies(draw):
    """The .dltree body of a random tree: bushy, a unary chain or a comb, with
    ids that may use every id character and, sometimes, a phantom root."""
    size = _sizes(draw)
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
@example("(a b:1)")  # a space inside an id
@example("(a:1 .5)")  # a space inside a number
@example("(a:1. 5)")
@example(" (a:1)")  # a leading space
@example("(r:1,(a:1)\t)")  # a tab between closes
@example("(a:1 \u0663)")  # a space before a non-ASCII digit
@example("(a:1. \u0665)")
def test_split_parse_matches_the_node_walker(body):
    """The one-split parse returns the walker's lists, or the walker's own error."""
    assert _outcome(_parse_body, body) == _outcome(_walk_body, body)


_TOKEN = re.compile(r"[A-Za-z0-9.+~_-]+|.")  # an id, a number or '_', or one character


@st.composite
def spaced_bodies(draw):
    """(body, the body with a run of spaces and tabs, maybe empty, drawn for
    every boundary between two tokens, between two ')'s too)."""
    body = draw(tree_bodies())
    tokens = _TOKEN.findall(body)
    gaps = draw(st.lists(st.text(" \t", max_size=3), min_size=len(tokens) - 1,
                         max_size=len(tokens) - 1))
    return body, "".join(map(str.__add__, tokens, gaps)) + tokens[-1]


@settings(max_examples=200, deadline=None)
@given(spaced_bodies())
def test_spaces_and_tabs_between_tokens_read_as_the_body_without_them(case):
    """A body with spaces or tabs between its tokens gives the walker's lists
    and parents, the same as for the body without them."""
    body, spaced = case
    located = lambda pos: (1, pos + 1)
    assert _parse_body(spaced, located) == _walk_body(spaced, located) == (
        _walk_body(body, located))


# Numbers outside the grammar (".5", "1.", "1e5", "+1"), zeros, and digit runs
# past float range or padded to 310 digits with leading zeros.
_VESS_NUMBERS = (".5", "1.", "1e5", "+1", "-0", "-0.0", "9" * 310, "-" + "9" * 310,
                 "0" * 306 + "1.25")
_SIDS = ("POINT", "_1", "a#b", "é1", "1-")  # one id in the grammar, four outside it
_VESS_EDITS = ("shuffle", "move", "comment", "blank", "tabs", "token", "pid", "sid",
               "number", "repeat", "drop", "unknown", "cycle", "roots", "header")


def _vess_edit(records, op, draw):
    """records after one edit: shuffled, moved, commented or respaced records,
    a token too few or too many, a pid renamed to POINT, a segment renamed, an
    odd number, a repeated or unknown id, a cycle, extra roots or a second
    HEADER."""
    records = list(records)
    kinds: dict[str, list[int]] = {}  # records with an id after the kind
    for k, rec in enumerate(records):
        if len(rec.split()) >= 2:
            kinds.setdefault(rec.split()[0], []).append(k)
    index = st.integers(0, len(records) - 1)
    slot = st.integers(0, len(records))
    if op == "shuffle":
        records = draw(st.permutations(records))
    elif op == "move":
        records.insert(draw(slot), records.pop(draw(index)))
    elif op == "comment":
        records.insert(draw(slot), draw(st.sampled_from(("# note", "#POINT p1 0 0 0 -1",
                                                         "  # ROOT zz"))))
    elif op == "blank":
        records.insert(draw(slot), draw(st.sampled_from(("", "  ", "\t"))))
    elif op == "tabs":
        i = draw(index)
        records[i] = draw(st.sampled_from(("\t", "  ", " \t"))).join(records[i].split()) + "\t"
    elif op == "token":
        i = draw(index)
        toks = records[i].split()
        records[i] = " ".join(draw(st.sampled_from((toks[:-1], toks + ["1"]))))
    elif op == "pid" and "POINT" in kinds or op == "sid" and "SEGMENT" in kinds:
        kind, names = ("POINT", ("POINT",)) if op == "pid" else ("SEGMENT", _SIDS)
        old = records[draw(st.sampled_from(kinds[kind]))].split()[1]
        new = draw(st.sampled_from(names))
        records = [" ".join(new if t == old and k else t for k, t in enumerate(r.split()))
                   for r in records]
    elif op == "number" and "POINT" in kinds:
        i = draw(st.sampled_from(kinds["POINT"]))
        toks = records[i].split()
        if len(toks) == 6:
            toks[draw(st.integers(2, 5))] = draw(st.sampled_from(_VESS_NUMBERS))
            records[i] = " ".join(toks)
    elif op == "repeat":
        i = draw(index)
        records.insert(draw(st.sampled_from((i, i + 1, len(records)))), records[i])
    elif op == "drop":
        del records[draw(index)]
    elif op == "unknown":
        i = draw(index)
        toks = records[i].split()
        if len(toks) >= 2 and toks[0] != "HEADER":
            toks[draw(st.integers(1, len(toks) - 1))] = draw(st.sampled_from(("zz9", "p0")))
            records[i] = " ".join(toks)
    elif op == "cycle" and "CONNECT" in kinds:
        p, c = records[draw(st.sampled_from(kinds["CONNECT"]))].split()[-2:]
        records.append(draw(st.sampled_from((f"CONNECT {c} {p}", f"CONNECT {c} {c}"))))
    elif op == "roots" and "SEGMENT" in kinds:
        for i in draw(st.lists(st.sampled_from(kinds["SEGMENT"]), min_size=1, max_size=2)):
            records.append("ROOT " + records[i].split()[1])
    elif op == "header":
        records.insert(draw(slot), draw(st.sampled_from(("HEADER t F", "HEADER t X"))))
    return records


@st.composite
def vess_files(draw):
    """A random_vess_graph file after zero to three edits, its records ended
    by \\n, \\r\\n, \\r or a form feed."""
    rnd = random.Random(draw(st.integers(0, 10**6)))
    graph = random_vess_graph(rnd, max_segments=draw(st.sampled_from((3, 12))))
    records = serialize_vess(graph).decode().splitlines()
    for op in draw(st.lists(st.sampled_from(_VESS_EDITS), max_size=3)):
        records = _vess_edit(records, op, draw)
    ends = st.sampled_from(("\n", "\r\n", "\r", "\x0c"))
    return "".join(rec + draw(ends) for rec in records)


_V2 = ("HEADER s B\nPOINT p1 0 0 0 1\nPOINT p2 1 0 0 1\nSEGMENT 1 p1 p2\nSEGMENT 2 p1 p2\n"
       "CONNECT 1 2\nROOT 1\n")


def _vess_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return type(e), str(e), e.line


# tokens float() reads that are outside the number grammar, or that neither
# reads, and Arabic-Indic digits, which both read
_FLOAT_EDGES = ("1_0", "+1", "1e5", "1E5", "inf", "iNf", "nan", "NaN", "Infinity", ".5", "5.",
                "-.5", "-", "1-2", "--1", "1.2.3", "\u0661\u0662", "\u0663.\u0664")


def _float_edge_examples(test):
    """The test with each _FLOAT_EDGES token as an example, once as a
    coordinate and once as a radius."""
    for tok in _FLOAT_EDGES:
        for record in (f"POINT p2 {tok} 0 0 1", f"POINT p2 1 0 0 {tok}"):
            test = example(_V2.replace("POINT p2 1 0 0 1", record))(test)
    return test


@settings(max_examples=400, deadline=None)
@given(vess_files())
@_float_edge_examples
@example(_V2.replace("p1", "POINT"))
@example(_V2.replace("POINT p1 0", "POINT p1 .5"))
@example(_V2.replace("CONNECT 1 2\n", "CONNECT 1 2\nCONNECT 2 1\n"))
@example(_V2.replace("CONNECT 1 2", "CONNECT 2 2"))
@example(_V2.replace("CONNECT 1 2\n", "CONNECT 1 2\nCONNECT 1 2\n"))  # a repeated edge
@example(_V2.replace("ROOT 1\n", "ROOT 1\nROOT 1\n"))
@example(_V2.replace("POINT p2 1 0 0 1\n", "POINT p2 1 0 0 1\nPOINT p2 1 0 0 1\n"))
@example(_V2.replace("SEGMENT 2 p1 p2\n", "SEGMENT 2 p1 p2\nSEGMENT 2 p2 p1\n"))
@example(_V2.replace("SEGMENT 2 p1 p2\nCONNECT 1 2\n", "CONNECT 1 2\nSEGMENT 2 p1 p2\n"))
@example(_V2.replace("POINT p1 0 0 0 1", f"POINT p1 0 {'9' * 310} 0 1"))
@example(_V2.replace("POINT p2 1 0 0 1", "POINT p2 1 0 0 -0"))
@example(_V2.replace("CONNECT 1 2", "CONNECT 1 2 1"))
@example(_V2.replace("CONNECT 1 2", "CONNECT 1"))
@example(_V2.replace("ROOT 1", "ROOT 1 1"))
@example(_V2.replace("ROOT 1", "ROOT"))
@example(_V2.replace("SEGMENT 2 p1 p2", "SEGMENT"))
@example(_V2.replace("SEGMENT 2 p1 p2", "SEGMENT 2"))
@example(_V2.replace("SEGMENT 2 p1 p2", "SEGMENT 2 p1"))
@example(_V2.replace("CONNECT 1 2", "CONNECT 1 3").replace("ROOT 1", "ROOT 3"))
@example("# c\n" * (_BLOCK - 1) + "HEADER s X\n" + _V2)  # two HEADERs in two blocks
@example(_V2.replace("ROOT 1\n", "HEADER t F\nROOT 1\n"))  # a second HEADER
@example(_V2.replace("HEADER s B", "HEADER ../s B"))  # a subject outside the grammar
def test_column_read_matches_the_line_walker(text):
    """The column read returns the walker's graph, or the walker's own error."""
    assert _vess_outcome(parse_vess, text) == _vess_outcome(_walk_vess, text)
    graph = _read_vess(text)
    if graph is not None:
        assert graph == _walk_vess(text)


@settings(max_examples=400, deadline=None)
@given(vess_files())
def test_column_read_takes_every_file_the_walker_accepts(text):
    try:
        graph = _walk_vess(text)
    except ParseError:
        return
    assert _read_vess(text) == graph


def test_column_read_takes_every_file_serialize_vess_writes():
    rng = random.Random(7)
    for _ in range(50):
        data = serialize_vess(random_vess_graph(rng, max_segments=30)).decode()
        for text in (data, data.replace("\n", "\r\n"), "# c\n\n" + data.replace(" ", " \t ")):
            assert _read_vess(text) == _walk_vess(text)


def test_column_read_takes_a_file_in_another_order():
    lines = _V2.splitlines(keepends=True)
    for text in ("".join(lines[:5] + lines[6:] + lines[5:6]),  # ROOT before CONNECT
                 "".join(lines[:5] + ["POINT p3 2 0 0 1\n"] + lines[5:]),  # POINT after SEGMENT
                 "".join(lines[1:] + lines[:1])):  # HEADER last
        graph = _read_vess(text)
        assert graph is not None and graph == _walk_vess(text)
    # interleaved, each SEGMENT right after its own POINTs
    rng = random.Random(3)
    for _ in range(20):
        records = serialize_vess(random_vess_graph(rng, max_segments=30)).decode().splitlines()
        points = {r.split()[1]: r for r in records if r.startswith("POINT")}
        interleaved = []
        for r in records:
            if r.startswith("SEGMENT"):
                interleaved += [points[pid] for pid in r.split()[2:]]
            if not r.startswith("POINT"):
                interleaved.append(r)
        text = "\n".join(interleaved) + "\n"
        graph = _read_vess(text)
        assert graph is not None and graph == _walk_vess(text)


def _use_above_definition(use: str, definition: str, pad: int = 0) -> str:
    """_V2 with `use` moved right above `definition`, after `pad` comment lines."""
    lines = _V2.splitlines()
    lines.remove(use)
    at = lines.index(definition)
    return "\n".join(["# c"] * pad + lines[:at] + [use] + lines[at:]) + "\n"


@pytest.mark.parametrize("use, definition", [
    ("SEGMENT 1 p1 p2", "POINT p2 1 0 0 1"),
    ("CONNECT 1 2", "SEGMENT 2 p1 p2"),
    ("ROOT 1", "SEGMENT 1 p1 p2"),
])
@pytest.mark.parametrize("boundary", [False, True])
def test_an_id_used_above_its_definition_goes_to_the_walker(use, definition, boundary):
    """In one block, or on the last line of a block above a definition on the
    next block's first line."""
    pad = 0
    if boundary:
        pad = _BLOCK - 1 - _use_above_definition(use, definition).splitlines().index(use)
    text = _use_above_definition(use, definition, pad)
    use_at = text.splitlines().index(use)
    assert use_at // _BLOCK == 0 and (use_at + 1) // _BLOCK == boundary
    assert _read_vess(text) is None
    walker = _vess_outcome(_walk_vess, text)
    kind, name = definition.split()[:2]  # the id the use names before it exists
    assert walker == (ParseError, f"unknown {kind.lower()} id {name!r}", use_at + 1)
    assert _vess_outcome(parse_vess, text) == walker


def _defined_just_in_time(records: list[str], rng: random.Random) -> list[str]:
    """serialize_vess records reordered so that each record comes right
    after the last definition it needs: a SEGMENT after its last POINT, a
    CONNECT after its later SEGMENT, a ROOT after its SEGMENT; the HEADER
    goes anywhere."""
    header, *rest = records
    points, segments, order = {}, {}, {}
    after: dict[str, list[str]] = {}  # a record -> the records that wait for it
    for record in rest:  # POINTs, then SEGMENTs, then CONNECTs and ROOTs
        kind, sid, *ids = record.split()
        if kind == "POINT":
            points[sid] = record
            continue
        if kind == "SEGMENT":
            segments[sid], order[sid] = record, len(order)
            last = points[ids[-1]]
        else:
            last = segments[max([sid, *ids], key=order.__getitem__)]
        after.setdefault(last, []).append(record)
    out: list[str] = []

    def put(record):
        out.append(record)
        for waiting in after.get(record, ()):
            put(waiting)

    for record in points.values():
        put(record)
    out.insert(rng.randint(0, len(out)), header)
    return out


def test_column_read_takes_large_files_whose_blocks_mix_kinds():
    rng = random.Random(19)
    for _ in range(3):
        graph = random_vess_graph(rng, max_segments=2500, min_segments=2000)
        text = serialize_vess(graph).decode()
        mixed = "\n".join(_defined_just_in_time(text.splitlines(), rng)) + "\n"
        lines = mixed.splitlines()
        kinds = [{r.split()[0] for r in lines[b:b + _BLOCK]} for b in range(0, len(lines), _BLOCK)]
        assert all(len(block) >= 3 for block in kinds)
        assert _read_vess(mixed) == _read_vess(text) == graph


# ids at the id grammar's edges; and a prefix or suffix outside the grammar,
# which the parser would reject or read back as another id
_EDGE_AFFIXES = (("", "a" * 200, "Z"), ("", ".+~-", "9" * 40, "--.."))
_BAD_AFFIXES = (("_", "é", " ", "#"), (":", ",(b:1", ")", " x", "\ty", "\n#z", "\u2028w"))
# zero, below the format's 4 decimals, 1e300 and the float maximum
_EXTREME_THICKNESS = (0.0, 5e-5, 1.25, 1e300, sys.float_info.max)
_PAST_FLOAT_RANGE = ("9" * 400, "1" + "0" * 309)


def _one_in_four(draw):
    return draw(st.integers(0, 3)) == 0


@st.composite
def extreme_trees(draw):
    """(tree, whether one of its ids is outside the id grammar, and None or
    (k, digits): the text writes the k-th thickness as that digit run)."""
    size = _sizes(draw)
    prefixes, suffixes = _EDGE_AFFIXES
    ids = [f"{draw(st.sampled_from(prefixes))}{i}{draw(st.sampled_from(suffixes))}"
           for i in range(len(size))]
    bad_id = _one_in_four(draw)
    if bad_id:
        k = draw(st.integers(0, len(size) - 1))
        prefixes, suffixes = _BAD_AFFIXES
        ids[k] = draw(st.sampled_from(prefixes)) + ids[k] if draw(st.booleans()) else (
            ids[k] + draw(st.sampled_from(suffixes)))
    thickness = draw(st.lists(st.sampled_from(_EXTREME_THICKNESS), min_size=len(size),
                              max_size=len(size)))
    if size[0] > 1 and size[1] < size[0] - 1 and _one_in_four(draw):
        thickness[0] = None  # a phantom root
    past = None
    if _one_in_four(draw):
        past = (draw(st.integers(0, len(size) - 1 - (thickness[0] is None))),
                draw(st.sampled_from(_PAST_FLOAT_RANGE)))
    return BinaryTree("s", Region.BACK, ids=ids, thickness=thickness, size=size), bad_id, past


def _rounded(tree):
    """The tree with each thickness read back from its 4-decimal form."""
    return BinaryTree(tree.subject_id, tree.region, ids=tree.ids, size=tree.size,
                      thickness=[None if t is None else float(f"{t:.4f}")
                                 for t in tree.thickness])


@settings(max_examples=200, deadline=None)
@given(extreme_trees(), st.data())
def test_every_tree_the_parser_accepts_passes_every_stage(case, data):
    """serialize -> parse -> scan, layout, render, apply-edits -> serialize -> parse.

    serialize_dltree refuses an id the parser cannot read back, and the
    parser rejects a thickness past float range at its line and column;
    anything else passes every stage, and its output reads back as the
    tree it wrote."""
    tree, bad_id, past = case
    if bad_id:
        with pytest.raises(ValueError, match="outside the .dltree id grammar"):
            serialize_dltree(tree)
        return
    text = serialize_dltree(tree).decode()
    if past:
        k, digits = past
        numbers = iter(range(tree.node_count))
        text = re.sub(r":[0-9.]+", lambda m: f":{digits}" if next(numbers) == k else m[0], text)
    try:
        first = parse_dltree(text)
    except ParseError as e:
        assert past and e.line == 2 and text.split("\n")[1][e.col - 1].isdigit()
        return
    assert not past
    assert first == _rounded(tree)
    assert serialize_dltree(first).decode() == text
    # the parse hands its parents to the tree, on the split and walker paths
    with mock.patch.object(ingest, "_parse_body", _walk_body):
        walked = parse_dltree(text)
    twin = BinaryTree("s", Region.BACK, ids=first.ids, thickness=first.thickness,
                      size=first.size)
    for parsed in (first, walked):
        assert parsed == twin and "parent" in vars(parsed)
        assert parsed.parent == twin.parent
        assert scan_tree(parsed) == scan_tree(twin)
        assert build_layout(parsed) == build_layout(twin)

    flags = scan_tree(first)
    assert [(f.kind, f.node_id) for f in flags_from_tsv(flags_to_tsv(flags))] == [
        (f.kind, f.node_id) for f in flags]
    svg = render_svg(build_layout(first))
    assert len(ET.fromstring(svg).findall(".//{http://www.w3.org/2000/svg}circle")) == (
        first.node_count)

    leaves = [i for i in range(1, first.node_count) if first.size[i] == 1]
    ops = [("TRIM_ROOT", range(first.node_count))]
    if first.node_count > 1:
        ops.append(("DELETE_SUBTREE", range(1, first.node_count)))
    if leaves:
        ops.append(("DELETE_LEAF", leaves))
    verb, targets = data.draw(st.sampled_from(ops))
    target = first.ids[data.draw(st.sampled_from(targets))]
    script = parse_script(f"s B {verb} {target}\n")
    edited = apply_script({("s", "B"): first}, script)[("s", "B")]
    out = serialize_dltree(edited)
    final = parse_dltree(out)
    assert final == _rounded(edited) and serialize_dltree(final) == out
    if verb == "TRIM_ROOT" and target == first.ids[0]:
        assert final == first
