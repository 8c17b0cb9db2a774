"""Corpus-level flag aggregation and slope p-values of branchiness vs age.

The regression response is log2(tree size); the slope is tested two-sided
against zero with a Student-t tail computed through the regularized
incomplete beta function (continued-fraction evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CorpusEntry, Region
from .detect import FlagKind, FlagRecord

_KINDS = tuple(FlagKind)
_REGIONS = tuple(Region)


@dataclass(frozen=True)
class FlagSummary:
    counts: dict[FlagKind, dict[Region, int]]  # distinct flagged trees
    total_flagged_trees: int
    corpus_size: int

    @property
    def percentage(self) -> str:
        return f"{100.0 * self.total_flagged_trees / self.corpus_size:.1f}%"

    def kind_total(self, kind: FlagKind) -> int:
        return sum(self.counts[kind].values())


def summarize_flags(records: list[FlagRecord], corpus_size: int) -> FlagSummary:
    """Distinct-tree counts per problem kind and region, Table-style."""
    per_cell: dict[tuple[FlagKind, Region], set] = {
        (k, r): set() for k in _KINDS for r in _REGIONS
    }
    flagged_trees = set()
    for rec in records:
        per_cell[(rec.kind, rec.region)].add((rec.subject_id, rec.region))
        flagged_trees.add((rec.subject_id, rec.region))
    counts = {k: {r: len(per_cell[(k, r)]) for r in _REGIONS} for k in _KINDS}
    return FlagSummary(counts, len(flagged_trees), corpus_size)


def summary_to_tsv(summary: FlagSummary) -> str:
    header = "kind\t" + "\t".join(r.value for r in _REGIONS) + "\ttotal"
    lines = [header]
    for kind in _KINDS:
        row = summary.counts[kind]
        cells = "\t".join(str(row[r]) for r in _REGIONS)
        lines.append(f"{kind.value}\t{cells}\t{summary.kind_total(kind)}")
    lines.append(
        f"flagged_trees\t{summary.total_flagged_trees}\t"
        f"of\t{summary.corpus_size}\t{summary.percentage}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# regularized incomplete beta function (Lentz continued fraction)


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # one Lentz step per term: the even term, then the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a} b={b} x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), relative error well below 1e-10."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T >= t) for Student's t with df degrees of freedom."""
    x = df / (df + t * t)
    p = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    p_value: float
    n: int


def slope_p_value(pairs: list[tuple[float, float]]) -> RegressionResult:
    """OLS slope with a two-sided t-test against zero (df = n - 2)."""
    n = len(pairs)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("covariate is constant; slope undefined")
    sxy = math.fsum((x - mx) * (y - my) for x, y in pairs)
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in pairs)
    df = n - 2
    if rss <= 0.0:
        p = 1.0 if slope == 0.0 else 0.0
    else:
        se = math.sqrt(rss / df / sxx)
        t = slope / se
        p = min(2.0 * student_t_sf(abs(t), df), 1.0)
    return RegressionResult(slope, intercept, p, n)


def region_age_analysis(corpus: list[CorpusEntry]) -> dict[Region, RegressionResult]:
    """One log2(tree size) vs covariate regression per region.

    Note this is a labeled branchiness proxy, not a tree-line principal
    component analysis.
    """
    results = {}
    for region in _REGIONS:
        pairs = [
            (e.covariate, math.log2(e.tree.node_count))
            for e in corpus
            if e.tree.region is region
        ]
        try:
            results[region] = slope_p_value(pairs)
        except ValueError as e:
            raise ValueError(f"region {region.label}: {e}") from None
    return results


_TABLE_ROW_ORDER = (Region.BACK, Region.FRONT, Region.RIGHT, Region.LEFT)


def comparison_to_tsv(primary: dict[Region, RegressionResult],
                      baseline: dict[Region, RegressionResult] | None = None) -> str:
    """Per-region slope p-values, optionally next to a second corpus."""
    lines = ["# response: log2(tree size) regressed on the covariate (branchiness proxy)"]
    if baseline is None:
        lines.append("region\tslope\tp_value\tn")
        for region in _TABLE_ROW_ORDER:
            r = primary[region]
            lines.append(f"{region.label}\t{r.slope:.6g}\t{r.p_value:.4g}\t{r.n}")
    else:
        lines.append("region\tp_value\tp_value_baseline")
        for region in _TABLE_ROW_ORDER:
            lines.append(
                f"{region.label}\t{primary[region].p_value:.4g}"
                f"\t{baseline[region].p_value:.4g}"
            )
    return "\n".join(lines) + "\n"
