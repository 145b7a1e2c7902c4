"""Self-contained nonparametric statistics.

Implements exactly what the analysis pipeline needs, with no dependency on
an external stats library so every numerical path can be verified against
brute-force oracles:

* Wilcoxon signed-rank test for paired samples. Zero differences are
  dropped (Wilcoxon's original treatment); absolute differences receive
  average ranks on ties. For n <= 12 the p-value is exact, by enumeration
  of all 2^n sign patterns (at most 4096); larger samples use the normal
  approximation with tie-adjusted variance and a 0.5 continuity
  correction. Two-sided p-values are symmetric-tail probabilities
  P(|W+ - mu| >= |w - mu|), which under the sign-flip null equals the
  usual doubled one-tail definition.
* Kolmogorov-Smirnov normality pre-test: the sample is standardized by
  its own mean and standard deviation, D = sup|ECDF - Phi| is evaluated at
  both step corners, and p comes from the asymptotic Kolmogorov
  distribution. Because the parameters are estimated from the data this
  p-value is conservative (true p is smaller); the test is only used to
  gate method choice, so conservatism is acceptable and preferred over
  Lilliefors tables.
* Box-plot summaries with linearly interpolated quartiles and the
  1.5 * IQR whisker convention.

Significance marks: "**" for p < 0.001, "*" for p < 0.05, else "".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateSampleError

EXACT_MAX_N = 12

SIDEDNESS = ("two-sided", "greater")


def _check_finite(name: str, values) -> None:
    """ValueError naming the index of the first non-finite value of ``values``."""
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"{name}[{i}] is not finite: {v}")


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length sequences of paired observations."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        if len(a) != len(b):
            raise ValueError(f"paired sample lengths differ: {len(a)} vs {len(b)}")
        if len(a) < 5:
            raise ValueError(f"paired sample needs n >= 5, got {len(a)}")
        for side, values in (("a", a), ("b", b)):
            _check_finite(f"paired sample {side}", values)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def differences(self) -> np.ndarray:
        return np.asarray(self.a) - np.asarray(self.b)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str              # "exact" | "normal-approximation" | "asymptotic-kolmogorov"
    significance_mark: str   # "" | "*" | "**"
    n: int


@dataclass(frozen=True)
class BoxSummary:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def significance_mark(p_value: float) -> str:
    if p_value < 0.001:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _rank_average(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties receiving the average of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return 0.5 * (2 * ends - counts + 1)[inverse]


def _exact_p(ranks: np.ndarray, w_plus: float, sidedness: str) -> float:
    """Enumerate all 2^n sign assignments of the observed ranks."""
    n = len(ranks)
    patterns = np.arange(2 ** n, dtype=np.uint32)
    bits = (patterns[:, None] >> np.arange(n)) & 1
    w_all = bits @ ranks
    mu = ranks.sum() / 2.0
    eps = 1e-9
    if sidedness == "two-sided":
        count = int(np.sum(np.abs(w_all - mu) >= abs(w_plus - mu) - eps))
    else:
        count = int(np.sum(w_all >= w_plus - eps))
    return count / float(2 ** n)


def _normal_p(ranks: np.ndarray, w_plus: float, sidedness: str) -> float:
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie adjustment: subtract sum(t^3 - t)/48 over groups of tied |d|
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(counts.astype(float) ** 3 - counts)) / 48.0
    if var <= 0:
        raise DegenerateSampleError("zero variance in signed-rank statistic (all ties)")
    sd = math.sqrt(var)
    if sidedness == "two-sided":
        z = (abs(w_plus - mu) - 0.5) / sd
        return min(1.0, 2.0 * (1.0 - _normal_cdf(max(z, 0.0))))
    z = (w_plus - mu - 0.5) / sd
    return 1.0 - _normal_cdf(z)


def wilcoxon_signed_rank(sample: PairedSample, sidedness: str = "two-sided") -> TestResult:
    """Wilcoxon signed-rank test on paired observations.

    The statistic is W+, the rank sum of positive differences a - b.
    ``sidedness="greater"`` tests the alternative that ``a`` tends to
    exceed ``b``.
    """
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    d = sample.differences()
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")
    if n < 5:
        raise DegenerateSampleError(f"need >= 5 nonzero differences, got {n}")
    ranks = _rank_average(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= EXACT_MAX_N:
        p = _exact_p(ranks, w_plus, sidedness)
        method = "exact"
    else:
        p = _normal_p(ranks, w_plus, sidedness)
        method = "normal-approximation"
    return TestResult(
        statistic=w_plus,
        p_value=p,
        method=method,
        significance_mark=significance_mark(p),
        n=n,
    )


def ks_statistic(x: Sequence[float], cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov D = sup |ECDF - F| for a given reference CDF.

    Evaluated at both corners of every ECDF step: the supremum over the
    whole line is attained at a sample point from one side or the other.
    A non-finite value has no place on the ECDF and is refused.
    """
    xs = np.asarray(x, dtype=float)
    _check_finite("sample", xs)
    xs = np.sort(xs)
    n = len(xs)
    if n == 0:
        raise DegenerateSampleError("empty sample")
    f = np.array([cdf(v) for v in xs])
    upper = np.max(np.abs(np.arange(1, n + 1) / n - f))
    lower = np.max(np.abs(np.arange(0, n) / n - f))
    return float(max(upper, lower))


def kolmogorov_sf(t: float) -> float:
    """Asymptotic Kolmogorov survival function Q(t) = 2 sum (-1)^{k-1} e^{-2k^2t^2}."""
    if t <= 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * (k * t) ** 2)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_normality(x: Sequence[float]) -> TestResult:
    """KS test of normality with mean/std estimated from the sample.

    The returned p-value uses the plain asymptotic Kolmogorov distribution
    and is therefore conservative (parameter estimation shrinks D). It
    refuses a non-finite value, which has no place on the normal CDF.
    """
    xs = np.asarray(x, dtype=float)
    _check_finite("sample", xs)
    n = len(xs)
    if n < 5:
        raise DegenerateSampleError(f"need n >= 5, got {n}")
    std = xs.std(ddof=1)
    if std <= 0:
        raise DegenerateSampleError("zero variance sample")
    z = (xs - xs.mean()) / std
    d = ks_statistic(z, _normal_cdf)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return TestResult(
        statistic=d,
        p_value=p,
        method="asymptotic-kolmogorov",
        significance_mark=significance_mark(p),
        n=n,
    )


def box_summary(x: Sequence[float]) -> BoxSummary:
    """Quartiles by linear interpolation, whiskers at the 1.5*IQR fences; refuses a non-finite value."""
    xs = np.asarray(x, dtype=float)
    if len(xs) == 0:
        raise DegenerateSampleError("empty sample")
    _check_finite("sample", xs)
    q1, med, q3 = (float(v) for v in np.percentile(xs, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = xs[(xs >= low_fence) & (xs <= high_fence)]
    outliers = xs[(xs < low_fence) | (xs > high_fence)]
    return BoxSummary(
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=tuple(float(v) for v in np.sort(outliers)),
    )
