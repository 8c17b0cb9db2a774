import math
import random
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from dlview.core import BinaryNode, BinaryTree, Region
from dlview.layout import BIN_COUNT, build_layout
from dlview.render import RenderOptions, render_svg

from conftest import random_binary_tree

SVG = "{http://www.w3.org/2000/svg}"


def counts(svg_bytes):
    root = ET.fromstring(svg_bytes)
    out = {}
    for el in root.iter():
        tag = el.tag.removeprefix(SVG)
        out[tag] = out.get(tag, 0) + 1
    return out


def test_single_node_one_circle_no_lines():
    lay = build_layout(BinaryTree("s", Region.BACK, BinaryNode("r", 1.0)))
    c = counts(render_svg(lay))
    assert c["circle"] == 1
    assert c.get("line", 0) == 0


def test_three_node_counts():
    root = BinaryNode("r", 2.0, BinaryNode("a", 1.0), BinaryNode("b", 1.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    c = counts(render_svg(lay))
    assert c["circle"] == 3
    assert c["line"] == 2


def test_annotation_text():
    root = BinaryNode("r", 3.97, BinaryNode("a", 0.58), BinaryNode("b", 1.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    svg = render_svg(lay).decode()
    assert "0.58–3.97 mm" in svg


@pytest.mark.parametrize("lo, hi, phantom", [
    (0.0, 0.0, False), (0.0, math.inf, True), (math.inf, math.inf, False),
    (1e-3, 1e308, True), (1e308, 1.7976931348623157e308, False)])
def test_range_note_needs_no_escaping(lo, hi, phantom):
    top = "ph" if phantom else "r"
    root = BinaryNode(top, None if phantom else hi, BinaryNode("a", lo), BinaryNode("b", hi))
    svg = render_svg(build_layout(BinaryTree("s", Region.BACK, root))).decode()
    note = svg.rsplit("</text>", 1)[0].rsplit(">", 1)[1]
    assert note == f"{lo:.2f}–{hi:.2f} mm" == escape(note)


def test_rect_count_rule():
    root = BinaryNode("r", 2.0, BinaryNode("a", 1.0), BinaryNode("b", 1.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    nonzero = sum(1 for h in lay.histogram if h)
    assert counts(render_svg(lay))["rect"] == BIN_COUNT + nonzero


def test_only_allowed_elements_and_valid_xml():
    rng = random.Random(9)
    allowed = {"svg", "g", "circle", "line", "rect", "text"}
    for _ in range(30):
        t = random_binary_tree(rng, max_nodes=40)
        svg = render_svg(build_layout(t))
        c = counts(svg)  # also asserts XML validity via parse
        assert set(c) <= allowed
        assert c["circle"] == t.node_count
        assert c.get("line", 0) == t.node_count - 1
        nonzero = sum(1 for h in build_layout(t).histogram if h)
        assert c["rect"] == BIN_COUNT + nonzero


def test_render_is_deterministic():
    rng = random.Random(10)
    for _ in range(20):
        t = random_binary_tree(rng, max_nodes=30)
        lay = build_layout(t)
        assert render_svg(lay) == render_svg(lay)


def test_phantom_root_drawn_hollow():
    root = BinaryNode("ph", None, BinaryNode("a", 1.0), BinaryNode("b", 1.0))
    lay = build_layout(BinaryTree("s", Region.BACK, root))
    svg = render_svg(lay).decode()
    assert 'fill="none" stroke="#888888"' in svg


def test_render_options_validate():
    with pytest.raises(ValueError, match="positive"):
        RenderOptions(width=0)
    # each equals an int, but would print as given in the header
    for size in ({"width": True}, {"width": 640.0}, {"height": 480.0}):
        with pytest.raises(ValueError, match="must be ints"):
            RenderOptions(**size)


def test_golden_svgs():
    from pathlib import Path

    from dlview.ingest import parse_dltree

    fixtures = Path(__file__).parent / "fixtures"
    paths = sorted(fixtures.glob("*.dltree"))
    assert len(paths) == 5
    variants = {
        ".svg": RenderOptions(),
        ".640x480.svg": RenderOptions(width=640, height=480, axis_labels=False),
    }
    for path in paths:
        layout = build_layout(parse_dltree(path.read_bytes()))
        for suffix, options in variants.items():
            golden = (fixtures / "golden" / (path.stem + suffix)).read_bytes()
            assert render_svg(layout, options) == golden, (
                f"{path.stem}{suffix} diverged from its golden file")


def test_custom_dimensions_respected():
    lay = build_layout(BinaryTree("s", Region.BACK, BinaryNode("r", 1.0)))
    svg = render_svg(lay, RenderOptions(width=640, height=480)).decode()
    assert 'width="640"' in svg and 'height="480"' in svg
