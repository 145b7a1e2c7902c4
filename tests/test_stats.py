import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special  # independent oracle for the Kolmogorov series

from gmpkit import stats
from gmpkit.errors import DegenerateSampleError
from gmpkit.stats import (
    BoxSummary,
    PairedSample,
    box_summary,
    kolmogorov_sf,
    ks_normality,
    ks_statistic,
    wilcoxon_signed_rank,
)


def brute_force_wilcoxon_p(differences, sidedness="two-sided"):
    """Independent oracle: enumerate sign patterns with itertools."""
    d = np.asarray([v for v in differences if v != 0.0], dtype=float)
    n = len(d)
    # average ranks of |d|, computed via sorted positions
    order = sorted(range(n), key=lambda i: abs(d[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(d[order[j + 1]]) == abs(d[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = sum(r for r, v in zip(ranks, d) if v > 0)
    mu = sum(ranks) / 2.0
    eps = 1e-9
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if sidedness == "two-sided":
            count += abs(w - mu) >= abs(w_obs - mu) - eps
        else:
            count += w >= w_obs - eps
    return count / 2.0 ** n


def paired_from_differences(diffs):
    return PairedSample(tuple(diffs), tuple(0.0 for _ in diffs))


def test_all_positive_n5_exact():
    result = wilcoxon_signed_rank(paired_from_differences([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert result.statistic == 15.0
    assert result.p_value == 2.0 / 32.0
    assert result.method == "exact"
    assert result.significance_mark == ""


def test_all_positive_n5_one_sided():
    result = wilcoxon_signed_rank(
        paired_from_differences([1.0, 2.0, 3.0, 4.0, 5.0]), sidedness="greater"
    )
    assert result.p_value == 1.0 / 32.0
    assert result.significance_mark == "*"


def test_antisymmetric_pairs_center_the_statistic():
    result = wilcoxon_signed_rank(paired_from_differences([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]))
    assert result.p_value == 1.0
    assert result.statistic == pytest.approx(result.n * (result.n + 1) / 4.0)


def test_exact_matches_brute_force_random_samples():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(5, 13))
        d = rng.normal(size=n)
        while np.any(d == 0) or len(np.unique(np.abs(d))) < n:
            d = rng.normal(size=n)
        for sidedness in ("two-sided", "greater"):
            mine = wilcoxon_signed_rank(paired_from_differences(d), sidedness)
            oracle = brute_force_wilcoxon_p(d, sidedness)
            assert mine.p_value == pytest.approx(oracle, abs=1e-12)


def test_exact_matches_brute_force_with_ties():
    cases = [
        [1.0, -1.0, 2.0, 3.0, 4.0],
        [2.0, 2.0, -2.0, 5.0, 5.0, 1.0],
        [1.0, 1.0, 1.0, -1.0, 2.0, -2.0, 3.0],
    ]
    for d in cases:
        mine = wilcoxon_signed_rank(paired_from_differences(d))
        oracle = brute_force_wilcoxon_p(d)
        assert mine.p_value == pytest.approx(oracle, abs=1e-12)


def test_zero_differences_dropped():
    with_zeros = wilcoxon_signed_rank(paired_from_differences([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0]))
    without = wilcoxon_signed_rank(paired_from_differences([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert with_zeros.n == 5
    assert with_zeros.p_value == without.p_value


def test_degenerate_samples():
    with pytest.raises(DegenerateSampleError):
        wilcoxon_signed_rank(paired_from_differences([0.0] * 6))
    with pytest.raises(DegenerateSampleError):
        wilcoxon_signed_rank(paired_from_differences([0.0, 0.0, 0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        PairedSample((1.0, 2.0), (0.0, 0.0))
    for sidedness in ("sideways", "less"):  # the study tests two-sided, or that a exceeds b
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(paired_from_differences([1.0] * 5), sidedness=sidedness)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_paired_sample_refuses_non_finite_values(side, bad):
    # a NaN difference would survive d != 0 and be ranked and counted
    values, zeros = (1.0, 2.0, 3.0, 4.0, bad, 6.0), (0.0,) * 6
    a, b = (values, zeros) if side == "a" else (zeros, values)
    with pytest.raises(ValueError, match=rf"paired sample {side}\[4\] is not finite"):
        PairedSample(a, b)


def test_normal_approximation_close_to_exact():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 13))
        d = rng.normal(size=n)
        while np.any(d == 0) or len(np.unique(np.abs(d))) < n:
            d = rng.normal(size=n)
        ranks = stats._rank_average(np.abs(d))
        w_plus = float(ranks[d > 0].sum())
        exact = stats._exact_p(ranks, w_plus, "two-sided")
        worst = max(worst, abs(exact - stats._normal_p(ranks, w_plus, "two-sided")))
    assert worst < 0.02


@pytest.mark.parametrize("n, method", [(12, "exact"), (13, "normal-approximation")])
def test_exact_enumeration_up_to_twelve_differences(n, method):
    d = [k if k % 2 else -k for k in range(1, n + 1)]  # no ties, both signs
    result = wilcoxon_signed_rank(paired_from_differences(d))
    assert (result.n, result.method) == (n, method)


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_p_invariant_under_increasing_affine_maps(scale, offset):
    # |differences| kept well separated: float scaling must not reorder
    # (or break exact ties in) the rank pattern for invariance to hold
    a = (3.0, -0.25, 2.5, 8.0, -0.75, 0.0)
    b = (1.0, 0.25, -0.5, 2.5, 0.5, -0.75)
    base = wilcoxon_signed_rank(PairedSample(a, b))
    mapped = wilcoxon_signed_rank(
        PairedSample(
            tuple(scale * v + offset for v in a),
            tuple(scale * v + offset for v in b),
        )
    )
    assert mapped.p_value == pytest.approx(base.p_value, abs=1e-12)
    assert mapped.statistic == base.statistic


def test_ks_statistic_hand_computed_uniform():
    # oracle by hand over step corners: max at |1/3 - 0.1| = |2/3 - 0.9| = 7/30
    d = ks_statistic([0.1, 0.5, 0.9], lambda v: min(1.0, max(0.0, v)))
    assert d == pytest.approx(7.0 / 30.0, abs=1e-15)


def test_ks_statistic_bounds():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=20)
        d = ks_statistic(x, lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)))
        assert 0.0 <= d <= 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_ks_statistic_refuses_non_finite_values(bad):
    # a NaN would sort last and give D nan: no statistic at all, reported as one
    with pytest.raises(ValueError, match=r"sample\[1\] is not finite"):
        ks_statistic([1.0, bad, 2.0], stats._normal_cdf)


def test_kolmogorov_sf_matches_scipy():
    for t in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        assert kolmogorov_sf(t) == pytest.approx(float(special.kolmogorov(t)), abs=1e-12)
    assert kolmogorov_sf(0.0) == 1.0


def test_ks_normality_accepts_gaussian_seeds():
    accepted = 0
    for seed in range(10):
        x = np.random.default_rng(seed).normal(loc=3.0, scale=2.0, size=200)
        if ks_normality(x).p_value > 0.05:
            accepted += 1
    assert accepted >= 9


def test_ks_normality_degenerate():
    with pytest.raises(DegenerateSampleError):
        ks_normality([2.0] * 10)
    with pytest.raises(DegenerateSampleError):
        ks_normality([1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_ks_normality_refuses_non_finite_values(bad):
    # an infinite value would give statistic nan and p 0.0: a "significant" departure, from no usable data
    with pytest.raises(ValueError, match=r"sample\[4\] is not finite"):
        ks_normality([1.0, 2.0, 3.0, 4.0, bad, 6.0])


def test_significance_marks():
    strong = wilcoxon_signed_rank(
        PairedSample(tuple(range(1, 41)), tuple([0] * 40)), "two-sided"
    )
    assert strong.method == "normal-approximation"
    assert strong.p_value < 0.001
    assert strong.significance_mark == "**"


def test_box_summary_symmetric_integers():
    box = box_summary(range(1, 10))
    assert (box.median, box.q1, box.q3) == (5.0, 3.0, 7.0)
    assert box.outliers == ()
    assert (box.whisker_low, box.whisker_high) == (1.0, 9.0)


def test_box_summary_singleton():
    box = box_summary([4.0])
    assert box == BoxSummary(4.0, 4.0, 4.0, 4.0, 4.0, ())


def test_box_summary_flags_outlier():
    # oracle by hand: q1 = 2, q3 = 4, fences at -1 and 7 -> 100 is outside
    box = box_summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert box.q1 == 2.0
    assert box.q3 == 4.0
    assert box.outliers == (100.0,)
    assert box.whisker_high == 4.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_box_summary_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match=r"sample\[2\] is not finite"):
        box_summary([1.0, 2.0, bad])


@given(st.permutations([1.0, 2.5, 3.0, 7.0, 11.0, 4.2, -3.0]))
def test_box_summary_permutation_invariant(values):
    reference = box_summary(sorted(values))
    assert box_summary(values) == reference
