"""Deterministic SVG rendering of a Descendant-Level layout.

Main panel: gray parent-child segments under colored node dots.  Right
sidebar: the 100-cell color bar next to per-bin count bars.  Top right:
the thickness range annotation.  Only svg/g/circle/line/rect/text elements
are emitted and identical layouts render to identical bytes.

The layout's preorder tuples are read by position: node i's segment runs
from node parent[i] to node i.  Each coordinate string is formatted once: a
column's x once per level and a node's cy once per node; every segment, dot
and level tick reuses them.

The dot radius and the margins are constants; the options are the size and
the axis labels.  Every string that depends only on the RenderOptions (the
header, the color bar, each bin's count-bar x and y, the mm ticks, the axis
labels, the tick labels' fixed coordinate and the range note's position) is
the figure's frame, built by ``_frame`` once per options value and cached.
A call formats only what depends on the layout: segments, dots, the tree's
own tick labels, the widths of the non-empty count bars and the range text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from typing import NamedTuple

from .layout import BIN_COUNT, COLOR_RAMP, THICKNESS_RANGE_MM, DlLayout


DOT_RADIUS = 3.5
MARGIN_LEFT = 60.0
MARGIN_RIGHT = 220.0  # holds the color bar and the count bars
MARGIN_TOP = 50.0
MARGIN_BOTTOM = 50.0


@dataclass(frozen=True)
class RenderOptions:
    width: int = 1000
    height: int = 800
    axis_labels: bool = True

    def __post_init__(self):
        # 640.0 and True would print as given yet share 640's and 1's cached frame
        if type(self.width) is not int or type(self.height) is not int:
            raise ValueError("render dimensions must be ints")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("render dimensions must be positive")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame(NamedTuple):
    head: str                     # XML declaration, <svg>, segment group opening
    r: str                        # dot radius
    tick_y: str                   # y of the x-axis tick labels
    tick_x: str                   # x of the y-axis tick labels
    axis_close: str               # axis-label <text>s, then </g>
    color_rects: tuple[str, ...]  # per bin: its color-bar <rect>
    hist_prefix: tuple[str, ...]  # per bin: a count bar's <rect> up to its width
    hist_suffix: str              # a count bar's height and fill
    hist_w_max: float             # width of the largest count bar
    sidebar_close: str            # </g>, then the mm tick labels
    note_open: str                # the range note's <text> opening tag


@lru_cache(maxsize=16)
def _frame(o: RenderOptions) -> _Frame:
    """Every string of the figure that depends only on the options."""
    plot_w = o.width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = o.height - MARGIN_TOP - MARGIN_BOTTOM

    head = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{o.width}" '
        f'height="{o.height}" viewBox="0 0 {o.width} {o.height}">',
        '<g stroke="#999999" stroke-width="1">',
    ])

    axis = []
    if o.axis_labels:
        axis.append(
            f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" '
            f'y="{_fmt(o.height - 12)}" text-anchor="middle">level</text>'
        )
        axis.append(
            f'<text x="{_fmt(14.0)}" y="{_fmt(MARGIN_TOP + plot_h / 2)}" '
            f'text-anchor="middle" transform="rotate(-90 14.00 '
            f'{_fmt(MARGIN_TOP + plot_h / 2)})">log2(descendants + 1)</text>'
        )
    axis.append("</g>")

    bar_x = o.width - MARGIN_RIGHT + 40
    bar_w = 18.0
    hist_x = bar_x + bar_w + 4
    cell_h = plot_h / BIN_COUNT
    color_rects, hist_prefix = [], []
    for i in range(BIN_COUNT):
        # bin 0 at the bottom
        y = MARGIN_TOP + (BIN_COUNT - 1 - i) * cell_h
        color_rects.append(
            f'<rect x="{_fmt(bar_x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(cell_h)}" fill="{COLOR_RAMP[i]}"/>'
        )
        hist_prefix.append(f'<rect x="{_fmt(hist_x)}" y="{_fmt(y)}" width="')

    sidebar_close = ['</g>', '<g font-family="sans-serif" font-size="10" fill="#333333">']
    for mm in range(0, int(THICKNESS_RANGE_MM) + 1):
        y = MARGIN_TOP + plot_h * (1 - mm / THICKNESS_RANGE_MM)
        sidebar_close.append(
            f'<text x="{_fmt(bar_x - 4)}" y="{_fmt(y + 3)}" '
            f'text-anchor="end">{mm}</text>'
        )
    sidebar_close.append('</g>')

    return _Frame(
        head=head,
        r=_fmt(DOT_RADIUS),
        tick_y=_fmt(o.height - MARGIN_BOTTOM + 16),
        tick_x=_fmt(MARGIN_LEFT - 8),
        axis_close="\n".join(axis),
        color_rects=tuple(color_rects),
        hist_prefix=tuple(hist_prefix),
        hist_suffix=f'" height="{_fmt(cell_h)}" fill="#555555"/>',
        hist_w_max=MARGIN_RIGHT - 40 - bar_w - 24,
        sidebar_close="\n".join(sidebar_close),
        note_open=(
            f'<text x="{_fmt(o.width - 10)}" y="{_fmt(20.0)}" text-anchor="end" '
            'font-family="sans-serif" font-size="13" fill="#000000">'
        ),
    )


def render_svg(layout: DlLayout, options: RenderOptions = RenderOptions()) -> bytes:
    o = options
    frame = _frame(o)
    plot_w = o.width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = o.height - MARGIN_TOP - MARGIN_BOTTOM

    xs, ys = layout.x, layout.y_jittered
    max_x = max(xs, default=0)
    max_y = max(max(ys, default=0.0), max(layout.y, default=0.0), 1e-9)
    span_x = max(max_x, 1)

    def sx(x: float) -> float:
        return MARGIN_LEFT + x / span_x * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (1.0 - y / max_y) * plot_h

    parts = [frame.head]

    col = [_fmt(sx(x)) for x in range(max_x + 1)]
    cxs = [col[x] for x in xs]
    cys = [_fmt(sy(y)) for y in ys]
    # node i's segment starts at its parent; the root has none
    parts.extend(
        f'<line x1="{cxs[a]}" y1="{cys[a]}" x2="{cx}" y2="{cy}"/>'
        for a, cx, cy in zip(islice(layout.parent, 1, None),
                             islice(cxs, 1, None), islice(cys, 1, None))
    )
    parts.append("</g>")

    r = frame.r
    parts.append("<g>")
    for cb, cx, cy in zip(layout.color_bin, cxs, cys):
        if cb is None:
            # phantom root: hollow gray dot, no thickness claim
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                'fill="none" stroke="#888888" stroke-width="1.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="{COLOR_RAMP[cb]}"/>'
            )
    parts.append("</g>")

    # axis tick labels at integer positions (text only)
    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for x, cx in enumerate(col):
        parts.append(
            f'<text x="{cx}" y="{frame.tick_y}" '
            f'text-anchor="middle">{x}</text>'
        )
    for y in range(0, int(max_y) + 1):
        parts.append(
            f'<text x="{frame.tick_x}" y="{_fmt(sy(y) + 4)}" '
            f'text-anchor="end">{y}</text>'
        )
    parts.append(frame.axis_close)

    # sidebar: the color bar, with a count bar after each non-empty bin
    histogram = layout.histogram
    max_count = max(histogram) if any(histogram) else 1
    parts.append('<g stroke="none">')
    done = 0
    for i in compress(range(BIN_COUNT), histogram):
        w = histogram[i] / max_count * frame.hist_w_max
        parts.extend(frame.color_rects[done:i + 1])
        parts.append(f"{frame.hist_prefix[i]}{_fmt(w)}{frame.hist_suffix}")
        done = i + 1
    parts.extend(frame.color_rects[done:])
    parts.append(frame.sidebar_close)

    # The range note's dash is the figure's only non-ASCII character; encoding
    # the note apart keeps the join and encode of the rest on a 1-byte string.
    svg = ("\n".join(parts) + "\n").encode("utf-8")
    if layout.thickness_min is not None:
        # a .2f float prints only digits, ".", "-", "inf" or "nan": XML escaping changes nothing
        note = f"{layout.thickness_min:.2f}–{layout.thickness_max:.2f} mm"
        svg += f"{frame.note_open}{note}</text>\n".encode("utf-8")
    return svg + b"</svg>\n"
