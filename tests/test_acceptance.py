"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS/FAIL` on the real stdout so the
verdicts are visible even under pytest's output capture.
"""

import math
import random
import time
from pathlib import Path

import pytest

from dlview.core import BinaryNode, BinaryTree, CorpusEntry, Region
from dlview.detect import FlagKind, scan_tree
from dlview.edit import apply_script, delete_leaf, delete_subtree, trim_root
from dlview.extract import extract_binary_tree
from dlview.ingest import parse_dltree, parse_vess, serialize_dltree, serialize_vess
from dlview.layout import build_layout, color_bin
from dlview.render import render_svg
from dlview.stats import (
    region_age_analysis,
    regularized_incomplete_beta,
    slope_p_value,
    summarize_flags,
)
from dlview.synth import (
    GenParams,
    TreeTooSmallError,
    generate_corpus,
    generate_tree,
    inject_anomaly,
    inject_corpus,
    repair_operation,
)

from conftest import random_binary_tree, random_vess_graph, raw_graph_trunk_counts
from test_stats import GOLDEN_DATASETS, TABLE_COUNTS, table_records

FIXTURES = Path(__file__).parent / "fixtures"


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(number: int, name: str, ok: bool, extra: str = "") -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_acceptance_01_roundtrip():
    start = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(700):
        t = random_binary_tree(rng, max_nodes=48)
        data = serialize_dltree(t)
        t2 = parse_dltree(data)
        ok = ok and t2 == t and serialize_dltree(t2) == data
    for _ in range(300):
        g = random_vess_graph(rng, max_segments=25)
        data = serialize_vess(g)
        g2 = parse_vess(data)
        ok = ok and g2 == g and serialize_vess(g2) == data
    elapsed = time.perf_counter() - start
    _verdict(1, "round-trip identity", ok and elapsed < 10.0,
             f"1000 instances in {elapsed:.2f}s")


def test_acceptance_02_extraction_oracle():
    rng = random.Random(202)
    ok = True
    for _ in range(500):
        g = random_vess_graph(rng, max_segments=200)
        t = extract_binary_tree(g)
        node_count, leaf_count, desc = raw_graph_trunk_counts(g)
        ok = ok and t.node_count == node_count
        ok = ok and t.size.count(1) == leaf_count
        ok = ok and all(t.size[t.position(h)] - 1 == d for h, d in desc.items())
        if not ok:
            break
    _verdict(2, "extraction vs brute-force walker", ok, "500 graphs")


def test_acceptance_03_layout_formulas():
    bins = {0.0: 0, 0.04: 1, 2.0: 50, 3.9999: 99, 4.0: 99, 5.2: 99}
    ok = all(color_bin(t) == b for t, b in bins.items())
    chain = BinaryTree("s", Region.BACK, ids=tuple(f"c{i}" for i in range(8)),
                       thickness=(1.0,) * 8, size=tuple(range(8, 0, -1)))
    y = build_layout(chain).y  # node i has 7 - i descendants
    ok = ok and y[0] == 3.0
    ok = ok and abs(y[3] - math.log2(5)) <= 1e-12
    _verdict(3, "layout formula table", ok)


def test_acceptance_04_rendering_determinism(tmp_path):
    from dlview.cli import main

    inputs = sorted(str(p) for p in FIXTURES.glob("*.dltree"))
    assert len(inputs) == 5
    dirs = [tmp_path / name for name in ("run1_j1", "run2_j1", "run1_j8")]
    for out_dir, jobs in zip(dirs, ("1", "1", "8")):
        assert main(["render", *inputs, "--out-dir", str(out_dir),
                     "--jobs", jobs]) == 0
    ok = True
    for path in FIXTURES.glob("*.dltree"):
        golden = (FIXTURES / "golden" / (path.stem + ".svg")).read_bytes()
        for out_dir in dirs:
            ok = ok and (out_dir / (path.stem + ".svg")).read_bytes() == golden
    _verdict(4, "golden SVGs across runs and --jobs", ok)


def test_acceptance_05_detector_roundtrip():
    start = time.perf_counter()
    kinds = list(FlagKind)
    injected = 0
    ok = True
    seed = 0
    while injected < 200 and seed < 600:
        seed += 1
        clean = generate_tree(GenParams(), seed=seed)
        kind = kinds[injected % 3]
        try:
            dirty, locus = inject_anomaly(clean, kind, seed=seed * 7 + 3)
        except TreeTooSmallError:
            continue
        flags = scan_tree(dirty)
        ok = ok and len(flags) == 1 and flags[0].kind is kind \
            and flags[0].node_id == locus
        injected += 1
    ok = ok and injected == 200
    for s in range(1000, 1200):
        ok = ok and scan_tree(generate_tree(GenParams(), seed=s)) == []
    elapsed = time.perf_counter() - start
    _verdict(5, "detector recall/precision", ok and elapsed < 30.0,
             f"200 injected + 200 clean in {elapsed:.2f}s")


def test_acceptance_06_edit_closure():
    ok = True
    fixed_count = 0
    for seed in range(30):
        clean = generate_tree(GenParams(), seed=seed + 40)
        for kind in FlagKind:
            try:
                dirty, locus = inject_anomaly(clean, kind, seed=seed)
            except TreeTooSmallError:
                continue
            line = repair_operation(clean, kind, locus)
            fixed = apply_script({(dirty.subject_id, dirty.region.value): dirty},
                                 [line])
            tree = next(iter(fixed.values()))
            ok = ok and scan_tree(tree) == []
            ok = ok and all(len(tree.children(i)) in (0, 2) for i in range(tree.node_count))
            fixed_count += 1
    _verdict(6, "edit closure on injected fixtures", ok and fixed_count >= 60,
             f"{fixed_count} corrections")


def _betainc_oracle(a, b, x):
    from scipy.integrate import quad

    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    value, _ = quad(
        lambda t: math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_b),
        0.0, x, epsabs=1e-13, epsrel=1e-13, limit=500)
    return value


def test_acceptance_07_statistics_oracle():
    ok = True
    for pairs, slope, intercept, p in GOLDEN_DATASETS:
        r = slope_p_value(pairs)
        ok = ok and abs(r.slope - slope) < 1e-6 and abs(r.p_value - p) < 1e-6
    spots = [(0.5, 0.5, 0.3), (1.0, 5.0, 0.2), (2.5, 0.5, 0.6), (5.0, 5.0, 0.31),
             (7.5, 2.0, 0.9), (10.0, 0.5, 0.55), (14.0, 0.5, 0.85),
             (2.0, 3.0, 0.66), (8.0, 4.0, 0.72), (20.0, 0.5, 0.6),
             (0.5, 2.0, 0.7), (1.0, 1.0, 0.42), (2.5, 2.5, 0.5), (3.0, 7.0, 0.25),
             (5.0, 0.5, 0.8), (10.0, 10.0, 0.5), (0.5, 0.5, 0.9), (1.5, 0.5, 0.1),
             (6.0, 1.0, 0.45), (12.5, 0.5, 0.33)]
    for a, b, x in spots:
        ok = ok and abs(regularized_incomplete_beta(a, b, x)
                        - _betainc_oracle(a, b, x)) < 1e-8
    _verdict(7, "regression + incomplete-beta oracle", ok,
             "10 golden datasets, 20 beta spots")


def test_acceptance_08_cleaning_improves_significance():
    improved = total = 0
    base = GenParams(p0=1.35, decay=0.1)
    for seed in range(50):
        entries = generate_corpus(100, 0.005, seed, base_params=base)
        dirty, _truth, repairs = inject_corpus(entries, seed)
        covariates = {e.tree.subject_id: e.covariate for e in dirty}
        corpus = {(e.tree.subject_id, e.tree.region.value): e.tree for e in dirty}
        cleaned = apply_script(corpus, repairs)
        cleaned_entries = [CorpusEntry(t, covariates[s])
                           for (s, _), t in cleaned.items()]
        before = region_age_analysis(dirty)
        after = region_age_analysis(cleaned_entries)
        for region in Region:
            total += 1
            if after[region].p_value <= before[region].p_value:
                improved += 1
    rate = improved / total
    _verdict(8, "cleaning lowers p-values", rate >= 0.70,
             f"{improved}/{total} cells = {100 * rate:.1f}%")


def test_acceptance_09_table_shape_aggregation():
    summary = summarize_flags(table_records(), corpus_size=420)
    ok = summary.kind_total(FlagKind.MISCONNECTION) == 16
    ok = ok and summary.kind_total(FlagKind.STARTING_POINT) == 16
    ok = ok and summary.kind_total(FlagKind.VEIN) == 66
    ok = ok and summary.total_flagged_trees == 98
    _verdict(9, "summary table totals 16/16/66 and 98", ok)


def test_acceptance_10_throughput():
    trees = []
    seed = 0
    while len(trees) < 420:
        seed += 1
        t = generate_tree(GenParams(), seed=5000 + seed)
        if t.node_count >= 30:
            trees.append(t)
    mean_nodes = sum(t.node_count for t in trees) / len(trees)
    start = time.perf_counter()
    n_flags = sum(len(scan_tree(t)) for t in trees)
    svg_bytes = sum(len(render_svg(build_layout(t))) for t in trees)
    elapsed = time.perf_counter() - start
    _verdict(10, "scan + render throughput", elapsed < 10.0 and svg_bytes > 0,
             f"420 trees (mean {mean_nodes:.0f} nodes), {n_flags} flags, "
             f"{elapsed:.2f}s")
