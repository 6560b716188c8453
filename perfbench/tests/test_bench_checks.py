import math

import pytest

import checks
from checks import binomial_pvalue, percentile, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (10 ** 6, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile(list(range(101)), 90) == 90.0


def _brute_pvalue(k, n, p):
    pmf = [math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(n + 1)]
    tail = sum(pmf[k:]) if k >= n * p else sum(pmf[: k + 1])
    return min(1.0, 2 * tail)


@pytest.mark.parametrize("k, n, p", [
    (0, 30, 0.05), (3, 30, 0.05), (9, 30, 0.05), (12, 200, 0.06),
    (24, 200, 0.06), (0, 200, 0.06), (50, 50, 0.9)])
def test_binomial_pvalue_matches_brute_force(k, n, p):
    assert binomial_pvalue(k, n, p) == pytest.approx(_brute_pvalue(k, n, p),
                                                      rel=1e-9, abs=1e-300)


def test_binomial_test_is_valid_at_zero_hits():
    # Zero hits in 120 samples at p = 0.05: plausible, not a failure, where
    # a k * SE test with the plug-in SE (zero) would reject.
    assert binomial_pvalue(0, 120, 0.05) > checks.MC_ALPHA
    assert binomial_pvalue(0, 1000, 0.05) < checks.MC_ALPHA
    assert binomial_pvalue(40, 120, 0.05) < checks.MC_ALPHA


def test_tube_check_flags_wrong_coefficient_and_counts_underflow():
    ref = checks.load_reference()
    dims, degrees, eps = (2, 2), (1, 1), 0.3
    a = ref["tube"]["2,2|1,1|weingarten"]
    terms = [[i, ai, float(checks.radial_reference(dims, degrees, eps, i))]
             for i, ai in enumerate(a)]
    volume = float(checks.tube_prefactor(dims, degrees) * sum(
        ai * checks.radial_reference(dims, degrees, eps, i)
        for i, ai in enumerate(a)))
    checker = checks.Checker(ref)
    assert checker.tube(dims, degrees, eps, "weingarten",
                        {"terms": terms, "volume": volume}) == []
    bad = [list(t) for t in terms]
    bad[1][1] *= 1 + 1e-15
    causes = checker.tube(dims, degrees, eps, "weingarten",
                          {"terms": bad, "volume": volume})
    assert len(causes) == 1 and causes[0].startswith("a_1")
    big = (6, 6, 6, 6), (1, 1, 1, 1)
    a = ref["tube"]["6,6,6,6|1,1,1,1|def-d"]
    terms = [[i, ai, 0.0] for i, ai in enumerate(a)]
    checker.tube(*big, 0.05, "def-d", {"terms": terms, "volume": 0.0})
    assert checker.underflow_terms == len(a)
