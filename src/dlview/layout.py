"""Descendant-Level view geometry: node coordinates, jitter, color bins,
thickness histogram and range for one tree.

y = log2(descendants + 1), x = level.  Thickness maps linearly onto 100
color bins over [0, 4] mm; anything thicker lands in the top bin.  Nodes
below `low_y_threshold` are displaced by `jitter_offset`, the one spec of
the jitter.

`build_layout` visits each node once and builds its one placement there:
the jitter reuses a sha256 state hashed once per tree over the shared key
prefix, which gives `jitter_offset`'s digest.
"""

from __future__ import annotations

import colorsys
import hashlib
import math
from dataclasses import dataclass
from typing import Optional

from .core import BinaryTree

BIN_COUNT = 100
THICKNESS_RANGE_MM = 4.0


@dataclass(frozen=True)
class LayoutConfig:
    jitter_amplitude: float = 0.15
    low_y_threshold: float = 3.0
    jitter_salt: str = ""


def y_coordinate(descendants: int) -> float:
    if descendants < 0:
        raise ValueError("descendant count cannot be negative")
    return math.log2(descendants + 1)


def color_bin(thickness: float) -> int:
    if thickness < 0:
        raise ValueError(f"negative thickness {thickness}")
    return min(int(math.floor(thickness / THICKNESS_RANGE_MM * BIN_COUNT)), BIN_COUNT - 1)


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
    subject_id: str
    region_code: str
    placements: tuple[DlNodePlacement, ...]
    edges: tuple[tuple[str, str], ...]
    histogram: tuple[int, ...]
    thickness_min: Optional[float]
    thickness_max: Optional[float]


def jitter_offset(subject_id: str, region_code: str, node_id: str,
                  amplitude: float, salt: str = "") -> float:
    """Deterministic displacement in [-amplitude, amplitude] keyed per node."""
    key = f"{salt}|{subject_id}|{region_code}|{node_id}".encode("utf-8")
    h = hashlib.sha256(key).digest()
    u = int.from_bytes(h[:8], "big") / 2**64  # [0, 1)
    return (2.0 * u - 1.0) * amplitude


def build_layout(tree: BinaryTree, config: LayoutConfig = LayoutConfig()) -> DlLayout:
    ids, parent, level, size = tree.ids, tree.parent, tree.level, tree.size
    amplitude, low_y = config.jitter_amplitude, config.low_y_threshold
    # jitter_offset's key up to the node id; utf-8 of a concatenation is the
    # concatenation of the utf-8 parts
    prefix = hashlib.sha256(
        f"{config.jitter_salt}|{tree.subject_id}|{tree.region.value}|".encode("utf-8"))
    placements = []
    histogram = [0] * BIN_COUNT
    for i, t in enumerate(tree.thickness):
        y = math.log2(size[i])  # y_coordinate(size[i] - 1)
        y_jittered = y
        if y < low_y:
            h = prefix.copy()
            h.update(ids[i].encode("utf-8"))
            u = int.from_bytes(h.digest()[:8], "big") / 2**64
            y_jittered = y + (2.0 * u - 1.0) * amplitude
        if t is None:
            cb = None
        else:
            cb = color_bin(t)
            histogram[cb] += 1
        placements.append(DlNodePlacement(ids[i], level[i], y, y_jittered, cb))
    present = [t for t in tree.thickness if t is not None]
    return DlLayout(
        subject_id=tree.subject_id,
        region_code=tree.region.value,
        placements=tuple(placements),
        edges=tuple((ids[parent[i]], ids[i]) for i in range(1, len(ids))),
        histogram=tuple(histogram),
        thickness_min=min(present, default=None),
        thickness_max=max(present, default=None),
    )
