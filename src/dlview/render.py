"""Deterministic SVG rendering of a Descendant-Level layout.

Main panel: gray parent-child segments under colored node dots.  Right
sidebar: the 100-cell color bar next to per-bin count bars.  Top right:
the thickness range annotation.  Only svg/g/circle/line/rect/text elements
are emitted and identical layouts render to identical bytes.

Each coordinate string is formatted once: a column's x once per level and
a node's cy once per node; every segment and dot reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

from .layout import BIN_COUNT, COLOR_RAMP, THICKNESS_RANGE_MM, DlLayout


@dataclass(frozen=True)
class RenderOptions:
    width: int = 1000
    height: int = 800
    dot_radius: float = 3.5
    margin_left: float = 60.0
    margin_right: float = 220.0
    margin_top: float = 50.0
    margin_bottom: float = 50.0
    axis_labels: bool = True

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("render dimensions must be positive")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(layout: DlLayout, options: RenderOptions = RenderOptions()) -> bytes:
    o = options
    plot_w = o.width - o.margin_left - o.margin_right
    plot_h = o.height - o.margin_top - o.margin_bottom

    max_x = max((p.x for p in layout.placements), default=0)
    max_y = max((p.y_jittered for p in layout.placements), default=0.0)
    max_y = max(max_y, max((p.y for p in layout.placements), default=0.0), 1e-9)
    span_x = max(max_x, 1)

    def sx(x: float) -> float:
        return o.margin_left + x / span_x * plot_w

    def sy(y: float) -> float:
        return o.margin_top + (1.0 - y / max_y) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
        f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">',
    ]

    placements = layout.placements
    col = {x: _fmt(sx(x)) for x in {p.x for p in placements}}
    cxs = [col[p.x] for p in placements]
    cys = [_fmt(sy(p.y_jittered)) for p in placements]
    at = {p.node_id: i for i, p in enumerate(placements)}
    parts.append('<g stroke="#999999" stroke-width="1">')
    for parent_id, child_id in layout.edges:
        a, b = at[parent_id], at[child_id]
        parts.append(f'<line x1="{cxs[a]}" y1="{cys[a]}" x2="{cxs[b]}" y2="{cys[b]}"/>')
    parts.append("</g>")

    r = _fmt(o.dot_radius)
    parts.append("<g>")
    for p, cx, cy in zip(placements, cxs, cys):
        if p.color_bin is None:
            # phantom root: hollow gray dot, no thickness claim
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                'fill="none" stroke="#888888" stroke-width="1.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="{COLOR_RAMP[p.color_bin]}"/>'
            )
    parts.append("</g>")

    # axis tick labels at integer positions (text only)
    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for x in range(0, max_x + 1):
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_fmt(o.height - o.margin_bottom + 16)}" '
            f'text-anchor="middle">{x}</text>'
        )
    for y in range(0, int(max_y) + 1):
        parts.append(
            f'<text x="{_fmt(o.margin_left - 8)}" y="{_fmt(sy(y) + 4)}" '
            f'text-anchor="end">{y}</text>'
        )
    if o.axis_labels:
        parts.append(
            f'<text x="{_fmt(o.margin_left + plot_w / 2)}" '
            f'y="{_fmt(o.height - 12)}" text-anchor="middle">level</text>'
        )
        parts.append(
            f'<text x="{_fmt(14.0)}" y="{_fmt(o.margin_top + plot_h / 2)}" '
            f'text-anchor="middle" transform="rotate(-90 14.00 '
            f'{_fmt(o.margin_top + plot_h / 2)})">log2(descendants + 1)</text>'
        )
    parts.append("</g>")

    parts.append(_sidebar(layout, o, plot_h))

    if layout.thickness_min is not None:
        note = f"{layout.thickness_min:.2f}–{layout.thickness_max:.2f} mm"
        parts.append(
            f'<text x="{_fmt(o.width - 10)}" y="{_fmt(20.0)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="13" fill="#000000">'
            f"{escape(note)}</text>"
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _sidebar(layout: DlLayout, o: RenderOptions, plot_h: float) -> str:
    bar_x = o.width - o.margin_right + 40
    bar_w = 18.0
    hist_x = bar_x + bar_w + 4
    hist_w_max = o.margin_right - 40 - bar_w - 24
    cell_h = plot_h / BIN_COUNT
    max_count = max(layout.histogram) if any(layout.histogram) else 1

    parts = ['<g stroke="none">']
    for i in range(BIN_COUNT):
        # bin 0 at the bottom
        y = o.margin_top + (BIN_COUNT - 1 - i) * cell_h
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
        y = o.margin_top + plot_h * (1 - mm / THICKNESS_RANGE_MM)
        parts.append(
            f'<text x="{_fmt(bar_x - 4)}" y="{_fmt(y + 3)}" '
            f'text-anchor="end">{mm}</text>'
        )
    parts.append('</g>')
    return "\n".join(parts)
