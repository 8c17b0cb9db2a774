#!/usr/bin/env python3
"""Benchmark of the dlview batch pipeline.

    python3 perfbench/run.py --workload {corpus,bigtree,vessels} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each workload makes its inputs from the seed,
then runs its chain of CLI subcommands in this process through
`dlview.cli.main(argv)`, pass after pass, for at least S seconds, and
checks every pass's outputs against ground truth.  After the chain, each
pass opens every tree for review (parse, scan, layout, render) through the
library and times each tree.

--trace 0 reports the end-to-end metrics, all from untraced passes.  Each
timed unit (a set-up, a CLI step, one review) is scaled to one nominal
machine speed by a reference job sampled around it (see speedref.py), since
the shared VMs this runs on drift in speed by up to ~2x.  The unscaled
medians are printed as comments.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the spans of the traced ones (see spans.py and layers.py).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Ops are CLI commands (a wrong exit code or an exception fails one), output
checks and review calls.  The depth probe of the bigtree workload is kept
out of `attempted`/`failed` and reported through `ok_rate`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5      # setup_s is the median of this many set-ups
MIN_PASSES = 3      # timed passes per run, even when one outlasts --seconds
MAX_MEASURE_S = 90   # stop starting passes after this long, to end within 180 s
RSS_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "scan_s": "s",
    "review_ms_p50": "ms", "review_ms_p95": "ms",
    "peak_rss_mb": "MB", "ok_rate": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-pass", metavar="SPEC_JSON",
                   help="internal: run one untraced pass in this fresh process and exit")
    return p.parse_args(argv)


class Runner:
    """Runs passes of one workload and counts ops."""

    def __init__(self, workload, spec: dict, work: Path, gauge=None):
        from dlview import cli, detect, ingest, layout, render

        self.cli, self.detect, self.ingest = cli, detect, ingest
        self.layout, self.render = layout, render
        self.workload, self.spec, self.work = workload, spec, work
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first_digests = None
        self.tracer = None
        self.gauge = gauge

    def sample_speed(self, n: int) -> None:
        if self.gauge is not None:
            self.gauge.sample(n)

    def op(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def chain(self, out: Path) -> list[tuple[str, float, float]]:
        """Runs the CLI steps; returns (label, start, end) for each."""
        spans = []
        for step in self.workload.chain(self.spec, out):
            argv = step.argv()
            if self.tracer is not None:
                self.tracer.step = step.label
            self.sample_speed(2)
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code
            except Exception as e:  # a traceback is a failed command, not a crash
                print(f"{step.label}: {type(e).__name__}: {e}", file=sys.stderr)
                rc = None
            spans.append((step.label, start, time.perf_counter()))
            self.op(f"{step.label} exit {rc} (want {step.expect_rc})", rc == step.expect_rc)
        self.sample_speed(2)
        return spans

    def run_pass(self, k: int) -> dict:
        out = self.work / f"pass{k}"
        gc.collect()  # each pass starts from the same collector state
        steps = self.chain(out)
        times = {}  # per label; the vessels chain runs extract once per file
        for label, t0, t1 in steps:
            times[label] = times.get(label, 0.0) + t1 - t0
        try:
            checks, facts = self.workload.check(self.spec, out)
        except Exception as e:
            print(f"checks: {type(e).__name__}: {e}", file=sys.stderr)
            checks, facts = [("checks ran", False)], {}
        for name, ok in checks:
            self.op(name, ok)
        reviews, digests = self.review(out)
        svgs = sorted((out / "svg").glob("*.svg")) if (out / "svg").is_dir() else []
        for p in svgs:
            digests[f"svg/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.op("svgs byte-identical across passes", digests == self.first_digests)
        written = [p for p in out.rglob("*") if p.is_file()]
        facts.update(files_written=len(written),
                     bytes_written=sum(p.stat().st_size for p in written),
                     svg_bytes=sum(p.stat().st_size for p in svgs))
        shutil.rmtree(out, ignore_errors=True)  # keep one pass of outputs on disk
        # Flush this pass's writes and deletions now, untimed: left queued,
        # they slow the next pass's file writes by a varying amount.
        os.sync()
        return {"pass_id": k, "steps": steps, "times": times,
                "pipeline": sum(times.values()), "reviews": reviews, "facts": facts}

    def review(self, out: Path):
        """Open each tree as a reviewer would.

        Returns ((file name, start, end) per review, svg digests).
        """
        if self.tracer is not None:
            self.tracer.step = "review"
        samples, digests = [], {}
        files = [(p.name, p.read_bytes()) for p in self.workload.review_files(self.spec, out)]
        for _ in range(self.workload.review_rounds):
            for name, data in files:
                if self.gauge is not None:
                    self.gauge.tick()
                start = time.perf_counter()
                try:
                    tree = self.ingest.parse_dltree(data)
                    self.detect.scan_tree(tree)
                    svg = self.render.render_svg(self.layout.build_layout(tree))
                except Exception as e:
                    print(f"review {name}: {type(e).__name__}: {e}", file=sys.stderr)
                    self.op(f"review {name}", False)
                    continue
                samples.append((name, start, time.perf_counter()))
                digest = hashlib.sha256(svg).hexdigest()
                # every round of a pass must draw the same picture
                self.op(f"review {name}", digests.setdefault(f"review/{name}", digest) == digest)
        return samples, digests


def timed_setup(workload, seed: int, inputs: Path):
    """Makes the inputs; returns (spec, start, end)."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    os.sync()
    start = time.perf_counter()
    spec = workload.setup(seed, inputs)
    return spec, start, time.perf_counter()


def review_quantiles(records, ms_of) -> tuple[float, float, int]:
    """p50 and p95 over trees of each tree's median review time, and the tree count.

    A tree's median over the passes is steadier than pooled samples: on the
    bigtree ladder the pooled median would fall between trees of different
    sizes and jump between them from run to run.
    """
    per_tree = {}
    for rec in records:
        for name, t0, t1 in rec["reviews"]:
            per_tree.setdefault(name, []).append(ms_of(t0, t1))
    medians = [statistics.median(v) for v in per_tree.values()]
    return (statistics.median(medians), statistics.quantiles(medians, n=100)[94],
            len(medians))


def peak_rss_mb(workload, spec: dict, work: Path) -> tuple[float, bool]:
    """High-water RSS of one untraced pass in a fresh interpreter."""
    spec_path = work / "rss_spec.json"
    spec_path.write_text(json.dumps({"spec": spec, "out": str(work / "rss_pass")}))
    try:
        ok = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--rss-pass", str(spec_path)],
            stdout=subprocess.DEVNULL, timeout=RSS_TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        ok = False
    shutil.rmtree(work / "rss_pass", ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, ok


def measure(workload, seed: int, seconds: float, work: Path):
    """--trace 0: end-to-end metrics from untraced passes."""
    import gen
    import speedref
    import workloads

    gauge = speedref.Gauge()
    setups = []
    for _ in range(SETUP_REPS):
        gauge.sample(2)
        spec, t0, t1 = timed_setup(workload, seed, work / "inputs")
        gauge.sample(2)
        setups.append((t0, t1))
    runner = Runner(workload, spec, work, gauge)
    records = run_passes(runner, seconds, traced=lambda k: False)
    first_pass_ops = records[0]["ops"]
    rss, rss_ok = peak_rss_mb(workload, spec, work)
    runner.op("peak-rss pass", rss_ok)

    probe = workloads.depth_probe() if workload.name == "bigtree" else {}
    base, bad = first_pass_ops[0] + len(probe), first_pass_ops[1] + sum(
        1 for ok in probe.values() if not ok)

    def scaled(t0, t1):
        return (t1 - t0) * gauge.scale(t0, t1)

    def raw(t0, t1):
        return t1 - t0

    def timings(dur):
        p50, p95, trees = review_quantiles(records, lambda t0, t1: dur(t0, t1) * 1e3)
        return {
            "setup_s": statistics.median(dur(*span) for span in setups),
            "pipeline_s": statistics.median(
                sum(dur(t0, t1) for _, t0, t1 in r["steps"]) for r in records),
            "scan_s": statistics.median(
                sum(dur(t0, t1) for label, t0, t1 in r["steps"] if label == "scan")
                for r in records),
            "review_ms_p50": p50,
            "review_ms_p95": p95,
        }, trees

    metrics, trees = timings(scaled)
    metrics.update(peak_rss_mb=rss, ok_rate=(base - bad) / base)
    unscaled, _ = timings(raw)
    print(f"# {workload.name}: {len(records)} passes, setup reps {SETUP_REPS}, "
          f"review samples {sum(len(r['reviews']) for r in records)} "
          f"({trees} trees x {len(records)} passes)")
    print(f"# speed gauge: {len(gauge.times)} samples, median "
          f"{statistics.median(gauge.times) * 1e3:.3f} ms against "
          f"{speedref.REFERENCE_S * 1e3:.3f} ms nominal; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    print(f"# ok_rate base: ops of the first pass ({first_pass_ops[0]}, "
          f"{first_pass_ops[1]} failed) + depth-probe stages ({len(probe)}, "
          f"{sum(1 for ok in probe.values() if not ok)} failed)")
    if probe:
        print("# depth probe (chain depth %d): %s" % (
            gen.PROBE_DEPTH,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in probe.items())))
    return runner, metrics, END_TO_END


def run_passes(runner: Runner, seconds: float, traced) -> list[dict]:
    """Runs passes until one more would end past `seconds` (MIN_PASSES at least)."""
    records, k, start = [], 0, time.perf_counter()
    while True:
        k += 1
        pass_start = time.perf_counter()
        before = (runner.attempted, runner.failed)
        tracer = runner.tracer if traced(k) else None
        if tracer is not None:
            tracer.pass_id = k
            tracer.install()
        try:
            rec = runner.run_pass(k)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec["traced"] = tracer is not None
        rec["ops"] = (runner.attempted - before[0], runner.failed - before[1])
        print(f"pass {k}{' traced' if rec['traced'] else ''}: pipeline {rec['pipeline']:.3f} s ("
              + ", ".join(f"{label} {t:.3f}" for label, t in rec["times"].items())
              + f"), {len(rec['reviews'])} reviews "
              f"{sum(t1 - t0 for _, t0, t1 in rec['reviews']):.3f} s",
              file=sys.stderr)
        records.append(rec)
        rec["wall"] = time.perf_counter() - pass_start
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(r["wall"] for r in records)
        if elapsed >= MAX_MEASURE_S or (next_end > seconds and k >= MIN_PASSES):
            return records


def trace(workload, seed: int, seconds: float, work: Path):
    """--trace 1: per-layer metrics from traced passes."""
    import layers
    import spans

    spec, _, _ = timed_setup(workload, seed, work / "inputs")
    runner = Runner(workload, spec, work)
    runner.tracer = spans.Tracer()
    # odd passes untraced, even passes traced
    records = run_passes(runner, seconds, traced=lambda k: k % 2 == 0)
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    metrics = layers.layer_metrics(runner.tracer.spans, traced, untraced)
    print(f"# {workload.name}: {len(untraced)} untraced + {len(traced)} traced passes, "
          f"{len(runner.tracer.spans)} spans")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return runner, metrics, units


def rss_pass(workload, spec_path: Path) -> int:
    job = json.loads(spec_path.read_text())
    runner = Runner(workload, job["spec"], Path(job["out"]).parent)
    runner.chain(Path(job["out"]))
    return 0 if runner.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dlview" / "cli.py").is_file():
        print(f"error: dlview sources not found under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.rss_pass:
        return rss_pass(workload, Path(args.rss_pass))

    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        fn = trace if args.trace else measure
        runner, metrics, units = fn(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for failure in runner.failures:
        print(f"# failed: {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
