"""A fixed reference job that gauges how fast this machine runs right now.

The benchmark runs on shared virtual machines whose speed drifts by up to
~2x, over seconds and over minutes, as neighbours load the host's caches and
memory.  The program's times follow that drift, so the medians of two runs
of the same code can differ by more than a regression bound.

`Gauge.sample()` times a small, fixed job of the same kind as dlview's work:
parse a bracketed tree text char by char into node objects, index it in a
dict, walk it iteratively and format one SVG-like element per node.  It uses
only the standard library and never calls dlview, so a change to the program
cannot change it.  The benchmark samples it between timed units all through
a run.  `Gauge.scale(t0, t1)` compares the samples taken within `WINDOW_S`
of a unit with `REFERENCE_S`; multiplying the unit's time by it reports the
time at one fixed machine speed.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time

REFERENCE_S = 0.0115  # the job's typical time on a 2-vCPU Xeon VM (Python 3.11)
NODES = 1500          # nodes of the reference tree
GAP_S = 0.25          # tick() samples when the last sample is older than this
WINDOW_S = 1.0        # samples this close to a unit gauge its speed


class _Node:
    def __init__(self, node_id: str, thickness: float, left=None, right=None):
        self.node_id = node_id
        self.thickness = thickness
        self.left = left
        self.right = right


def _tree_text(n: int) -> str:
    """A random binary tree of n nodes as '(id:t,left,right)' text."""
    rng = random.Random(0)
    kids: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        while True:
            p = rng.randrange(i)
            if len(kids[p]) < 2:
                kids[p].append(i)
                break
    out, stack = [], [(0, 0)]
    while stack:
        i, state = stack.pop()
        if state == 0:
            out.append(f"(n{i}:{2.8 * 0.997 ** i:.4f}")
            stack.append((i, 1))
            for c in reversed(kids[i]):
                stack.append((c, 2))
        elif state == 1:
            out.append(")")
        else:
            out.append(",")
            stack.append((i, 0))
    return "".join(out)


def _parse(text: str) -> _Node:
    stack: list[_Node] = []
    root = None
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            j = i + 1
            while text[j] not in ",()":
                j += 1
            node_id, _, thick = text[i + 1:j].partition(":")
            node = _Node(node_id, float(thick))
            if stack:
                parent = stack[-1]
                if parent.left is None:
                    parent.left = node
                else:
                    parent.right = node
            else:
                root = node
            stack.append(node)
            i = j
        elif ch == ")":
            stack.pop()
            i += 1
        else:
            i += 1
    return root


def _job(text: str) -> int:
    root = _parse(text)
    index, order, stack = {}, [], [root]
    while stack:
        node = stack.pop()
        index[node.node_id] = node
        order.append(node)
        stack.extend(c for c in (node.right, node.left) if c is not None)
    size = {}
    for node in reversed(order):
        size[node.node_id] = 1 + sum(size[c.node_id] for c in (node.left, node.right)
                                     if c is not None)
    parts = [f'<circle id="{nid}" cx="{k}" cy="{math.log2(size[nid]):.4f}" '
             f'r="{index[nid].thickness:.3f}"/>' for k, nid in enumerate(index)]
    return len("\n".join(parts).encode())


class Gauge:
    """Timed samples of the reference job, taken through one run."""

    def __init__(self):
        self.text = _tree_text(NODES)
        self.expected = _job(self.text)
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, n: int = 1) -> None:
        # the collector stays off, so that it does not time a collection of
        # the garbage the program left behind
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                start = time.perf_counter()
                got = _job(self.text)
                self.starts.append(start)
                self.times.append(time.perf_counter() - start)
                if got != self.expected:
                    raise AssertionError("reference job gave a different answer")
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= GAP_S:
            self.sample()

    def local(self, t0: float, t1: float) -> float:
        """Median sample time within WINDOW_S of the interval [t0, t1].

        Callers take a sample at most GAP_S before every unit they time, so
        the window is never empty.
        """
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return statistics.median(self.times[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns the time of [t0, t1] into time at nominal speed."""
        return REFERENCE_S / self.local(t0, t1)
