"""Descendant-Level view geometry: node coordinates, jitter, color bins,
thickness histogram and range for one tree.

y = log2(descendants + 1), x = level.  Thickness maps linearly onto 100
color bins over [0, 4] mm; anything thicker lands in the top bin.  Nodes
below y = LOW_Y_THRESHOLD are displaced by at most JITTER_AMPLITUDE, keyed
by `build_layout`'s `jitter_salt` and the node's subject, region and id;
`jitter_offset` is the one spec of the jitter.  Only the salt can be set, so
every tree of a review is drawn the same way.

A `DlLayout` is stored the way the tree is: preorder tuples with one slot
per node (`ids`, `parent`, `x`, `y`, `y_jittered`, `color_bin`), so node
i's segment is (parent[i], i).  `build_layout` writes each tuple in one pass;
the jitter reuses a sha256 state hashed once per tree over the shared key
prefix, which gives `jitter_offset`'s digest.  The per-node
`DlNodePlacement`s are a view built on first use.
"""

from __future__ import annotations

import colorsys
import hashlib
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Optional, Sequence

from .core import BinaryTree

BIN_COUNT = 100
THICKNESS_RANGE_MM = 4.0
JITTER_AMPLITUDE = 0.15
LOW_Y_THRESHOLD = 3.0


def color_bin(thickness: float) -> int:
    """The spec of a thickness's color bin; build_layout bins a whole column."""
    if thickness < 0:
        raise ValueError(f"negative thickness {thickness}")
    # clamped before the float becomes an int, since a thickness past about
    # 1.8e307 mm scales to inf
    return int(min(thickness / THICKNESS_RANGE_MM * BIN_COUNT, BIN_COUNT - 1))


def color_ramp() -> list[str]:
    """100 hex colors, dark blue through green and yellow to dark red."""
    colors = []
    for i in range(BIN_COUNT):
        t = i / (BIN_COUNT - 1)
        hue = (240.0 * (1.0 - t)) / 360.0
        val = 0.55 + 0.40 * math.sin(math.pi * t)
        r, g, b = colorsys.hsv_to_rgb(hue, 1.0, val)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


COLOR_RAMP = color_ramp()


@dataclass(frozen=True)
class DlNodePlacement:
    node_id: str
    x: int
    y: float
    y_jittered: float
    color_bin: Optional[int]  # None for the phantom root


@dataclass(frozen=True)
class DlLayout:
    """A tree's D-L layout as one slot per node in the tree's preorder.

    Node i sits at (x[i], y_jittered[i]) with color bin color_bin[i]; its
    segment runs from node parent[i] (-1 for the root).  A hand-made layout
    comes in as `DlNodePlacement`s and `(parent_id, child_id)` edges, one
    edge per non-first placement in placement order, and is converted to
    the arrays here.
    """

    subject_id: str
    region_code: str
    given_placements: InitVar[Optional[Sequence[DlNodePlacement]]] = None
    given_edges: InitVar[Optional[Sequence[tuple[str, str]]]] = None
    histogram: tuple[int, ...] = ()
    thickness_min: Optional[float] = None
    thickness_max: Optional[float] = None
    ids: tuple[str, ...] = ()
    parent: tuple[int, ...] = ()
    x: tuple[int, ...] = ()
    y: tuple[float, ...] = ()
    y_jittered: tuple[float, ...] = ()
    color_bin: tuple[Optional[int], ...] = ()

    def __post_init__(self, given_placements, given_edges):
        if given_placements is None:
            return
        ids = [p.node_id for p in given_placements]
        position = {node_id: i for i, node_id in enumerate(ids)}
        edges = tuple(given_edges or ())
        if len(edges) != len(ids[1:]):
            raise ValueError(f"one edge per placement after the first: {len(ids)} "
                             f"placements, {len(edges)} edges")
        parent = [-1] * len(ids)
        for i, (parent_id, child_id) in enumerate(edges, 1):
            if child_id != ids[i] or parent_id not in position:
                raise ValueError(f"edge {i} ({parent_id}, {child_id}) must end at "
                                 f"placement {i} ({ids[i]}) and start at a placement")
            parent[i] = position[parent_id]
        for name, value in (("ids", ids), ("parent", parent),
                            ("x", [p.x for p in given_placements]),
                            ("y", [p.y for p in given_placements]),
                            ("y_jittered", [p.y_jittered for p in given_placements]),
                            ("color_bin", [p.color_bin for p in given_placements])):
            object.__setattr__(self, name, tuple(value))

    @cached_property
    def placements(self) -> tuple[DlNodePlacement, ...]:
        """One DlNodePlacement per node, built on first use."""
        return tuple(map(DlNodePlacement, self.ids, self.x, self.y,
                         self.y_jittered, self.color_bin))


def jitter_offset(subject_id: str, region_code: str, node_id: str,
                  amplitude: float, salt: str = "") -> float:
    """Deterministic displacement in [-amplitude, amplitude] keyed per node."""
    key = f"{salt}|{subject_id}|{region_code}|{node_id}".encode("utf-8")
    h = hashlib.sha256(key).digest()
    u = int.from_bytes(h[:8], "big") / 2**64  # [0, 1)
    return (2.0 * u - 1.0) * amplitude


def build_layout(tree: BinaryTree, jitter_salt: str = "") -> DlLayout:
    ids, size = tree.ids, tree.size
    # jitter_offset's key up to the node id; utf-8 of a concatenation is the
    # concatenation of the utf-8 parts
    prefix = hashlib.sha256(
        f"{jitter_salt}|{tree.subject_id}|{tree.region.value}|".encode("utf-8"))
    y = tuple(map(math.log2, size))  # log2(descendants + 1)
    y_jittered = list(y)
    for i, v in enumerate(y):
        if v < LOW_Y_THRESHOLD:
            h = prefix.copy()
            h.update(ids[i].encode("utf-8"))
            u = int.from_bytes(h.digest()[:8], "big") / 2**64
            y_jittered[i] = v + (2.0 * u - 1.0) * JITTER_AMPLITUDE
    present = [t for t in tree.thickness if t is not None]
    lo = min(present, default=None)
    # color_bin for the whole column: t / THICKNESS_RANGE_MM is exact, a power
    # of two, so t * scale rounds to the same float; the min runs only where
    # it can bite, at the top bin and on NaN, since a call per value costs
    # more than the comparison
    scale, top = BIN_COUNT / THICKNESS_RANGE_MM, BIN_COUNT - 1
    bins = [int(v) if v < top else int(min(v, top)) for v in map(scale.__mul__, present)]
    histogram = [0] * BIN_COUNT
    for cb in bins:
        histogram[cb] += 1
    if len(present) < len(ids):  # the phantom root comes first
        bins.insert(0, None)
    return DlLayout(
        subject_id=tree.subject_id,
        region_code=tree.region.value,
        histogram=tuple(histogram),
        thickness_min=lo,
        thickness_max=max(present, default=None),
        ids=ids,
        parent=tuple(tree.parent),
        x=tuple(tree.level),
        y=y,
        y_jittered=tuple(y_jittered),
        color_bin=tuple(bins),
    )
