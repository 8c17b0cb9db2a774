"""Descendant-Level view geometry: node coordinates, jitter, color bins,
thickness histogram and range for one tree.

y = log2(descendants + 1), x = level.  Thickness maps linearly onto 100
color bins over [0, 4] mm; anything thicker lands in the top bin.
"""

from __future__ import annotations

import colorsys
import hashlib
import math
from dataclasses import dataclass, field
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


def apply_jitter(placements, subject_id: str, region_code: str,
                 config: LayoutConfig = LayoutConfig()):
    out = []
    for p in placements:
        if p.y < config.low_y_threshold:
            dy = jitter_offset(subject_id, region_code, p.node_id,
                               config.jitter_amplitude, config.jitter_salt)
            out.append(DlNodePlacement(p.node_id, p.x, p.y, p.y + dy, p.color_bin))
        else:
            out.append(p)
    return out


def build_layout(tree: BinaryTree, config: LayoutConfig = LayoutConfig()) -> DlLayout:
    ids, parent, level, size = tree.ids, tree.parent, tree.level, tree.size
    placements = []
    edges = []
    histogram = [0] * BIN_COUNT
    tmin = tmax = None
    for i, t in enumerate(tree.thickness):
        y = y_coordinate(size[i] - 1)
        if t is None:
            cb = None
        else:
            cb = color_bin(t)
            histogram[cb] += 1
            tmin = t if tmin is None else min(tmin, t)
            tmax = t if tmax is None else max(tmax, t)
        placements.append(DlNodePlacement(ids[i], level[i], y, y, cb))
        if i:
            edges.append((ids[parent[i]], ids[i]))
    placements = apply_jitter(placements, tree.subject_id, tree.region.value, config)
    return DlLayout(
        subject_id=tree.subject_id,
        region_code=tree.region.value,
        placements=tuple(placements),
        edges=tuple(edges),
        histogram=tuple(histogram),
        thickness_min=tmin,
        thickness_max=tmax,
    )
