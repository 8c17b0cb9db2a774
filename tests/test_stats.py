import math
import random

import pytest

from dlview.core import CorpusEntry, Region
from dlview.detect import FlagKind, FlagRecord
from dlview.stats import (
    RegressionResult,
    comparison_to_tsv,
    region_age_analysis,
    regularized_incomplete_beta,
    slope_p_value,
    student_t_sf,
    summarize_flags,
    summary_to_tsv,
)
from dlview.synth import GenParams, generate_corpus

# Reference slopes/intercepts/p-values computed once with an independent
# statistical library and frozen (seeded dataset recipe kept in
# scripts/make_regression_goldens.py).
GOLDEN_DATASETS = [
    ([(3.495, -15.057), (9.754, 19.798), (75.191, -41.944), (48.365, -60.654), (57.492, -72.148), (17.537, -59.502), (45.625, -61.756), (6.135, 15.976), (31.538, -25.888), (83.18, -16.595), (46.739, -10.95), (55.449, -48.767), (43.132, -24.215), (69.453, -64.024), (8.356, -10.15), (55.823, -74.556), (79.603, -44.496), (19.734, -21.498), (95.242, -73.612)],
     -0.6248645070941102, -8.302712825443777, 0.006093407197510248),
    ([(71.893, 121.751), (37.027, 61.056), (63.031, 90.982), (62.789, 92.552), (25.607, 8.537), (53.988, 52.706), (29.504, 41.51)],
     1.8971225981270703, -26.17296243105909, 0.0033329622113019816),
    ([(40.644, 44.002), (76.357, 128.805), (52.655, 137.354), (23.214, 55.979), (59.082, 124.198), (78.867, 113.087), (64.873, 120.878), (38.766, 59.605), (14.843, 30.292), (68.97, 74.362), (22.473, 42.215), (19.953, 39.389), (22.321, 12.448), (15.294, 50.872), (0.798, -28.174), (30.803, 81.774), (47.166, 35.891), (10.013, 51.77), (7.054, 16.346), (84.495, 185.082), (21.23, 19.199)],
     1.7063663976609624, 1.4524287207870685, 8.643530244030001e-07),
    ([(70.573, -128.129), (92.9, -154.251), (84.762, -106.219), (14.87, -25.694), (44.335, -72.956), (2.901, 10.577), (64.971, -75.291)],
     -1.5882330769118738, 6.302847508849879, 0.0009469075561022211),
    ([(84.226, -181.771), (1.045, -53.259), (34.199, -72.783), (69.502, -143.768), (46.228, -70.985), (33.136, -69.902)],
     -1.6047434474227746, -26.97626038206039, 0.010104133729745635),
    ([(36.809, -25.169), (75.939, 15.791), (50.585, -8.718), (77.78, 28.234), (73.773, -52.184), (4.937, -0.061)],
     0.10173920796222286, -12.440923118016999, 0.8485404586034845),
    ([(37.326, 48.876), (7.896, -4.178), (42.124, 62.828), (52.399, 29.256), (22.059, 9.809), (82.252, 133.862), (73.69, 90.87), (57.267, 79.396), (52.805, 117.792), (3.925, 4.728), (13.71, 21.569), (72.931, 142.376), (27.976, 21.795), (12.714, -28.277), (31.513, 27.279), (57.246, 80.043), (61.812, 106.657), (85.995, 77.975), (19.031, 1.867), (94.741, 121.495), (8.21, -8.067), (31.598, 41.101), (7.573, 21.187), (45.721, 95.64), (38.867, 45.063), (96.722, 134.619)],
     1.5703472009266821, -11.986763862163855, 9.351074379362667e-10),
    ([(94.793, 50.518), (55.097, 29.446), (42.647, 15.425), (87.99, 42.206), (2.474, 11.113), (27.845, 17.584), (14.43, -10.108), (75.76, 55.874), (57.37, 21.641), (90.779, 64.048), (93.242, 52.16), (42.193, 26.743), (64.436, 30.299), (31.419, -21.589), (3.328, -0.039), (15.783, 6.495), (83.046, 91.819), (25.443, 47.25), (83.075, 21.199), (53.602, 6.975), (60.318, 42.412), (2.583, 19.266), (43.688, 17.613), (99.15, 75.849), (98.366, 42.796), (51.783, 35.468), (63.064, 46.776), (50.56, 32.461), (12.202, -10.761)],
     0.6218818555373359, -3.046293396367414, 3.3026909288486e-06),
    ([(32.115, -67.374), (60.685, -120.321), (10.317, 9.829), (76.322, -139.208), (80.26, -131.859), (11.401, 10.212), (59.942, -99.153), (73.76, -104.291), (11.159, -11.687), (11.844, -22.689), (8.184, 27.398), (32.24, -51.116), (1.322, 36.351), (79.621, -123.58), (68.656, -73.272), (63.362, -102.176), (86.653, -133.974), (61.895, -134.43), (4.987, 17.179)],
     -1.9392585681975738, 21.294032017827355, 2.541009206090688e-10),
    ([(16.775, -20.246), (52.045, -43.293), (12.146, -3.388), (38.185, -35.238), (69.547, -91.92), (19.79, 11.058)],
     -1.4706306184237903, 20.596972728989858, 0.008309574025158136),
]

# Counts from the summary example: per-kind, per-region distinct-tree counts
# whose kind totals are 16 / 16 / 66 and whose distinct-tree total is 98.
TABLE_COUNTS = {
    FlagKind.MISCONNECTION: (7, 3, 4, 2),
    FlagKind.STARTING_POINT: (3, 6, 4, 3),
    FlagKind.VEIN: (18, 16, 23, 9),
}


def table_records():
    records = []
    serial = 0
    for kind, per_region in TABLE_COUNTS.items():
        for region, count in zip(Region, per_region):
            for _ in range(count):
                serial += 1
                records.append(FlagRecord(f"subj{serial:03d}", region,
                                          kind, "n1", 1.0))
    return records


def test_summary_table_counts():
    summary = summarize_flags(table_records(), corpus_size=420)
    assert summary.kind_total(FlagKind.MISCONNECTION) == 16
    assert summary.kind_total(FlagKind.STARTING_POINT) == 16
    assert summary.kind_total(FlagKind.VEIN) == 66
    assert summary.total_flagged_trees == 98
    assert summary.percentage == "23.3%"
    assert (summary.total_flagged_trees, summary.corpus_size) == (98, 420)


def test_summary_counts_distinct_trees_not_records():
    # two flags on the same tree count once
    records = [
        FlagRecord("s1", Region.BACK, FlagKind.VEIN, "a", 1.0),
        FlagRecord("s1", Region.BACK, FlagKind.VEIN, "b", 1.0),
    ]
    summary = summarize_flags(records, corpus_size=4)
    assert summary.counts[FlagKind.VEIN][Region.BACK] == 1
    assert summary.total_flagged_trees == 1


def test_empty_summary():
    summary = summarize_flags([], corpus_size=10)
    assert summary.total_flagged_trees == 0
    assert all(v == 0 for row in summary.counts.values() for v in row.values())
    text = summary_to_tsv(summary)
    assert "Misconnection\t0\t0\t0\t0\t0" in text


def test_summary_tsv_shape():
    text = summary_to_tsv(summarize_flags(table_records(), 420))
    lines = text.splitlines()
    assert lines[0] == "kind\tB\tL\tR\tF\ttotal"
    assert lines[1] == "Misconnection\t7\t3\t4\t2\t16"
    assert lines[3] == "Vein\t18\t16\t23\t9\t66"
    assert "98" in lines[4] and "23.3%" in lines[4]


# ---------------------------------------------------------------------------
# incomplete beta and t distribution


def _betainc_by_integration(a, b, x):
    """Adaptive-quadrature oracle for I_x(a, b), accurate to ~1e-13."""
    from scipy.integrate import quad

    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - log_b)

    value, _err = quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=500)
    return value


BETA_SPOTS = [
    (0.5, 0.5, 0.3), (0.5, 2.0, 0.7), (1.0, 1.0, 0.42), (1.0, 5.0, 0.2),
    (2.5, 0.5, 0.6), (2.5, 2.5, 0.5), (3.0, 7.0, 0.25), (5.0, 0.5, 0.8),
    (5.0, 5.0, 0.31), (7.5, 2.0, 0.9), (10.0, 0.5, 0.55), (10.0, 10.0, 0.5),
    (14.0, 0.5, 0.85), (0.5, 0.5, 0.9), (1.5, 0.5, 0.1), (2.0, 3.0, 0.66),
    (6.0, 1.0, 0.45), (8.0, 4.0, 0.72), (12.5, 0.5, 0.33), (20.0, 0.5, 0.6),
]


def test_incomplete_beta_matches_integration_oracle():
    for a, b, x in BETA_SPOTS:
        ours = regularized_incomplete_beta(a, b, x)
        oracle = _betainc_by_integration(a, b, x)
        assert ours == pytest.approx(oracle, abs=1e-8), (a, b, x)


def test_incomplete_beta_edges_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    for a, b, x in BETA_SPOTS:
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_student_t_sf_against_reference():
    from scipy.stats import t as student_t

    assert student_t_sf(0.0, 5) == pytest.approx(0.5, abs=1e-14)
    for t in (0.5, 1.0, 2.2, 4.7):
        for df in (1, 2, 5, 30):
            assert student_t_sf(t, df) == pytest.approx(
                float(student_t.sf(t, df)), abs=1e-10)
            assert student_t_sf(-t, df) == pytest.approx(
                1.0 - student_t_sf(t, df), abs=1e-12)


def test_incomplete_beta_and_t_tail_bits_are_pinned():
    # reprs from the continued fraction with its two Lentz half-steps written out
    ts = [(-3.5, 2), (-0.4, 7), (0.0, 1), (0.25, 3), (1.7, 12), (2.9, 40), (6.0, 5),
          (12.5, 198)]
    assert [repr(student_t_sf(t, df)) for t, df in ts] == [
        "0.9635863249727654", "0.6494591664147975", "0.5", "0.4093646112144148",
        "0.057439932697604335", "0.0030175635939847963", "0.0009230691447970054",
        "4.123271740115484e-27"]
    spots = [(0.5, 0.5, 0.3), (1.0, 2.0, 0.5), (2.5, 0.5, 0.9), (6.0, 0.5, 0.2),
             (20.0, 30.0, 0.45), (99.0, 0.5, 0.999), (0.1, 8.0, 0.01), (3.0, 3.0, 0.75)]
    assert [repr(regularized_incomplete_beta(a, b, x)) for a, b, x in spots] == [
        "0.36901011956554497", "0.75", "0.48958974456442816", "1.58660202402991e-05",
        "0.767111393213425", "0.6566654849583229", "0.8067817141617234",
        "0.8964843749999998"]


# ---------------------------------------------------------------------------
# slope p-values


def test_slope_golden_datasets():
    for pairs, slope, intercept, p in GOLDEN_DATASETS:
        r = slope_p_value(pairs)
        assert r.slope == pytest.approx(slope, abs=1e-9)
        assert r.intercept == pytest.approx(intercept, abs=1e-9)
        assert r.p_value == pytest.approx(p, abs=1e-6)
        assert r.n == len(pairs)


def test_slope_small_fixture():
    r = slope_p_value([(1, 2), (2, 3), (3, 5), (4, 4)])
    assert r.slope == pytest.approx(0.8, abs=1e-12)
    assert r.p_value == pytest.approx(0.1999999999999999, abs=1e-6)


def test_slope_degenerate_cases():
    # exactly collinear, nonzero slope
    pts = [(i, 2.0 * i + 1.0) for i in range(10)]
    assert slope_p_value(pts).p_value < 1e-12
    # response independent of covariate, symmetric fixture
    r = slope_p_value([(1, 0), (2, 1), (3, 0)])
    assert r.slope == pytest.approx(0.0, abs=1e-15)
    assert r.p_value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        slope_p_value([(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        slope_p_value([(1, 1), (1, 2), (1, 3)])


def test_p_value_affine_invariance():
    rng = random.Random(11)
    pairs = [(rng.uniform(0, 10), rng.uniform(0, 5)) for _ in range(15)]
    base = slope_p_value(pairs).p_value
    shifted = slope_p_value([(3.0 * x - 7.0, -2.0 * y + 4.0) for x, y in pairs])
    assert shifted.p_value == pytest.approx(base, abs=1e-10)
    doubled = slope_p_value([(x, 2.0 * y) for x, y in pairs])
    assert doubled.p_value == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------------------
# corpus regressions


def test_region_age_analysis_requires_covariates():
    # an entry cannot be built without a finite covariate, so the analysis
    # never meets one that lacks it
    entries = generate_corpus(3, 0.0, seed=2)
    with pytest.raises(TypeError):
        CorpusEntry(entries[0].tree, None)
    with pytest.raises(TypeError):
        CorpusEntry(entries[0].tree)


def test_zero_effect_rarely_significant():
    over = total = 0
    for seed in range(25):
        entries = generate_corpus(30, 0.0, seed=seed)
        for r in region_age_analysis(entries).values():
            total += 1
            if r.p_value > 0.05:
                over += 1
    assert over / total >= 0.85


def test_strong_effect_significant_everywhere():
    entries = generate_corpus(100, 0.005, seed=3,
                              base_params=GenParams(p0=1.35, decay=0.1))
    for r in region_age_analysis(entries).values():
        assert r.p_value < 0.01


def test_comparison_tsv_row_order():
    res = {r: RegressionResult(0.1, 0.0, 0.5, 10) for r in Region}
    lines = comparison_to_tsv(res).splitlines()
    assert [l.split("\t")[0] for l in lines[2:]] == ["Back", "Front", "Right", "Left"]
    both = comparison_to_tsv(res, res).splitlines()
    assert both[1] == "region\tp_value\tp_value_baseline"
    assert [l.split("\t")[0] for l in both[2:]] == ["Back", "Front", "Right", "Left"]
