"""Span recording from outside the program.

`Tracer.install()` replaces the public functions of the dlview modules, and
the few core methods that carry work counters, with a wrapper that records
one span per call: (id, name, start, end, parent id, pass id, chain step,
size and key of the tree or graph, whether it returned).  References that
other dlview modules imported by name are swapped too, so a call through
`cli` or `layout` is seen.  `uninstall()` restores the originals, so
untraced passes run the unmodified program.  Spans stay in memory; nothing
under src/ is edited.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

from dlview.core import BinaryTree, RawVesselGraph
from dlview.layout import DlLayout

LAYERS = ("cli", "ingest", "core", "extract", "detect", "layout", "render",
          "edit", "synth", "stats")
# Called once per node: a span per call would cost more than the work it
# times and would flatten the fitted slopes, so these stay inside their
# caller's span.  cli.main is timed by the benchmark itself.
UNWRAPPED = {"core.descendant_count", "core.node_level", "layout.y_coordinate",
             "layout.color_bin", "layout.jitter_offset", "cli.main"}
# core methods that the per-layer counters need
CORE_METHODS = (("RawVesselGraph", "validate"), ("RawVesselGraph", "children_of"),
                ("BinaryTree", "__post_init__"))


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    step: str
    size: int | None
    key: str | None
    ok: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _describe(obj):
    """(size, key) of a tree, graph, layout or text, else None."""
    if isinstance(obj, BinaryTree):
        return obj.node_count, obj.subject_id
    if isinstance(obj, RawVesselGraph):
        return len(obj.segments), obj.subject_id
    if isinstance(obj, DlLayout):
        return len(obj.placements), obj.subject_id
    if isinstance(obj, (bytes, str)):
        return len(obj), None
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self.step = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker: its caller is the main thread's open span
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                desc = _describe(args[0]) if args else None
                if desc is None or desc[1] is None:
                    desc = _describe(result) or desc
                size, key = desc if desc else (None, None)
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         tracer.pass_id, tracer.step, size, key, ok))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import dlview  # noqa: F401  (loads every layer)

        modules = [sys.modules[f"dlview.{layer}"] for layer in LAYERS]
        originals: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{name}" not in UNWRAPPED):
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        core = sys.modules["dlview.core"]
        for cls_name, meth in CORE_METHODS:
            cls = getattr(core, cls_name)
            self._saved.append((cls, meth, cls.__dict__[meth]))
            label = "build" if meth == "__post_init__" else meth
            setattr(cls, meth, self._wrap(cls.__dict__[meth], f"core.{cls_name}.{label}"))
        targets = modules + [sys.modules["dlview"]]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(span: Span, children: list[Span]) -> float:
    """A span's duration minus the part its child spans cover."""
    return span.seconds - covered((max(c.start, span.start), min(c.end, span.end))
                                  for c in children)


def loglog_slope(points) -> float:
    """Least-squares slope of log(seconds) on log(size); 0.0 below 3 sizes."""
    import math

    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
