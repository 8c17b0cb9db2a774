#!/usr/bin/env python3
"""Regenerate the golden SVG files for the rendering determinism tests.

The five fixture trees live in tests/fixtures/*.dltree; this script renders
each one with default options into tests/fixtures/golden/<name>.svg, and at
640x480 without axis labels into tests/fixtures/golden/<name>.640x480.svg.
Run it only when the canonical rendering style intentionally changes, and
review the SVG diffs before committing.
"""

from pathlib import Path

from dlview.ingest import parse_dltree
from dlview.layout import build_layout
from dlview.render import RenderOptions, render_svg

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# golden file suffix -> the options it is rendered at
VARIANTS = {
    ".svg": RenderOptions(),
    ".640x480.svg": RenderOptions(width=640, height=480, axis_labels=False),
}


def main() -> None:
    golden = FIXTURES / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for path in sorted(FIXTURES.glob("*.dltree")):
        layout = build_layout(parse_dltree(path.read_bytes()))
        for suffix, options in VARIANTS.items():
            out = golden / (path.stem + suffix)
            out.write_bytes(render_svg(layout, options))
            print(f"wrote {out}")


if __name__ == "__main__":
    main()
