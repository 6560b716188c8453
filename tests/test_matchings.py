import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svgeom import (
    DomainError,
    MatchingProblem,
    ResourceError,
    SpaceSpec,
    expected_minor_sum,
    matching_count,
    matching_determinant,
    tube_volume,
    variance_profile,
)
from svgeom.matchings import (
    expected_det_isserlis,
    expected_minor_sum_exact,
    matching_determinant_exact,
    weighted_matching_sum,
)
from svgeom import matchings
from svgeom.weingarten import PROFILE_NAMES, VarianceProfile

from oracles import naive_matching_sum


# ---------------------------------------------------------------------------
# matching sums
# ---------------------------------------------------------------------------

def test_single_cross_edge():
    assert weighted_matching_sum(MatchingProblem((1, 1), (1, 1))) == 1


def test_segre_example_count_and_sum():
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    assert weighted_matching_sum(p) == 10
    assert matching_count(p) == 10


def test_single_within_edge_weight():
    assert weighted_matching_sum(MatchingProblem((2,), (3,))) == 6


def test_odd_total_is_zero():
    assert weighted_matching_sum(MatchingProblem((2, 1), (1, 1))) == 0
    assert matching_determinant_exact(MatchingProblem((3,), (2,))) == 0


def test_unit_weights_give_double_factorial():
    for m in (2, 4, 6, 8):
        profile = VarianceProfile("unit", (Fraction(1),))
        p = MatchingProblem((m,), (2,), profile)
        expected = math.prod(range(1, m, 2))
        assert weighted_matching_sum(p) == expected


def test_float_weights_do_not_leak_into_exact_sums():
    # The matching memo is shared across calls; a float profile must not
    # hand its float result to the equal-valued exact profile.
    sizes, degrees = (3, 3), (2, 2)
    floats = VarianceProfile("float", (0.5, 0.5))
    exact = VarianceProfile("exact", (Fraction(1, 2),) * 2)
    weighted_matching_sum(MatchingProblem(sizes, degrees, floats))
    total = weighted_matching_sum(MatchingProblem(sizes, degrees, exact))
    assert type(total) is Fraction
    assert total == naive_matching_sum(MatchingProblem(sizes, degrees, exact))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
@settings(max_examples=40)
def test_memoized_equals_naive(sizes):
    if sum(sizes) > 8:
        sizes = sizes[:2]
    degrees = tuple(2 + (i % 2) for i in range(len(sizes)))
    p = MatchingProblem(tuple(sizes), degrees)
    assert weighted_matching_sum(p) == naive_matching_sum(p)


def test_matching_sum_cap():
    with pytest.raises(ResourceError):
        weighted_matching_sum(MatchingProblem((26,), (2,)))
    with pytest.raises(ResourceError):
        naive_matching_sum(MatchingProblem((12,), (2,)))


# ---------------------------------------------------------------------------
# signed determinants
# ---------------------------------------------------------------------------

def test_determinant_examples():
    assert matching_determinant_exact(
        MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))) == Fraction(-10)
    assert matching_determinant_exact(MatchingProblem((2,), (2,))) == -2
    assert matching_determinant(MatchingProblem((2,), (3,))) == -6.0


@given(st.permutations(range(3)))
def test_determinant_symmetric_under_group_relabeling(perm):
    sizes, degrees = (2, 1, 3), (2, 3, 1)
    base = matching_determinant_exact(MatchingProblem(sizes, degrees))
    permuted = matching_determinant_exact(MatchingProblem(
        tuple(sizes[i] for i in perm), tuple(degrees[i] for i in perm)))
    assert base == permuted


# ---------------------------------------------------------------------------
# permutation brute force
# ---------------------------------------------------------------------------

def test_two_by_two_expected_determinant():
    for degrees, weight in (((1,), 0), ((2,), 2), ((3,), 6)):
        p = MatchingProblem((2,), degrees)
        assert expected_det_isserlis(p) == -weight


def test_isserlis_matches_example():
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    assert expected_det_isserlis(p) == -10


def test_isserlis_odd_is_zero():
    assert expected_det_isserlis(MatchingProblem((3,), (2,))) == 0


def test_isserlis_equals_matching_sum_all_profiles():
    cases = [((2,), (3,)), ((4,), (2,)), ((1, 3), (2, 3)), ((2, 2), (1, 2)),
             ((2, 2, 1, 1), (1, 1, 1, 1)), ((1, 1, 2), (3, 1, 2))]
    for sizes, degrees in cases:
        for name in PROFILE_NAMES:
            profile = variance_profile(name, degrees)
            p = MatchingProblem(sizes, degrees, profile)
            assert expected_det_isserlis(p) == matching_determinant_exact(p)


def test_isserlis_cap():
    with pytest.raises(ResourceError):
        expected_det_isserlis(MatchingProblem((12,), (2,)))


def test_empty_problem():
    p = MatchingProblem((0, 0), (1, 1))
    assert matching_determinant_exact(p) == 1
    assert expected_det_isserlis(p) == 1


# ---------------------------------------------------------------------------
# expected minor sums
# ---------------------------------------------------------------------------

def test_minor_sum_index_zero():
    assert expected_minor_sum(SpaceSpec((2, 1), (1, 2)), 0) == 1.0


def test_minor_sum_segre_1_1():
    space = SpaceSpec((1, 1), (1, 1))
    assert expected_minor_sum(space, 1, mode="corrected") == -1.0
    assert expected_minor_sum(space, 1, mode="paper") == -1.0


def test_minor_sum_segre_2_2_modes():
    space = SpaceSpec((2, 2), (1, 1))
    assert expected_minor_sum_exact(space, 1, mode="corrected") == -4
    assert expected_minor_sum_exact(space, 1, mode="paper") == -1


def test_minor_sum_range_checks():
    with pytest.raises(DomainError):
        expected_minor_sum(SpaceSpec((1,), (2,)), 1)
    with pytest.raises(DomainError):
        expected_minor_sum(SpaceSpec((2, 2), (1, 1)), 1, mode="bogus")


def test_profiles_reject_negative_variance():
    with pytest.raises(DomainError):
        VarianceProfile("bad", (Fraction(-1),))
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            VarianceProfile("bad", (1.0, value))
    with pytest.raises(DomainError):
        variance_profile("nope", (2,))


def test_problem_validation():
    with pytest.raises(DomainError):
        MatchingProblem((1, 2), (1,))
    with pytest.raises(DomainError):
        MatchingProblem((-1,), (2,))
    with pytest.raises(DomainError):
        MatchingProblem((1,), (0,))


def test_memoized_equals_naive_at_cap():
    p = MatchingProblem((4, 3, 3), (2, 1, 3))
    assert weighted_matching_sum(p) == naive_matching_sum(p)


# ---------------------------------------------------------------------------
# brute-force oracle for every minor order
# ---------------------------------------------------------------------------

def _compositions(n):
    """Every dims tuple of positive parts summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


# Every dims tuple with n <= 8 and at most four factors, under two degree
# patterns: all within weights nonzero, and a degree-1 factor among them.
ORACLE_SPACES = [SpaceSpec(dims, pattern[:len(dims)])
                 for n in range(1, 9) for dims in _compositions(n)
                 if len(dims) <= 4 for pattern in ((2, 3, 2, 3), (1, 2, 3, 1))]


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_minor_sums_match_subset_brute_force(name):
    # The oracle walks labelled vertex subsets and signatures with
    # itertools and evaluates each by the literal pairing enumeration, so
    # it shares no code with the matching recursion.
    for space in ORACLE_SPACES:
        profile = variance_profile(name, space.degrees)
        labels = [g for g, nk in enumerate(space.dims) for _ in range(nk)]

        @functools.cache
        def naive(signature):
            return naive_matching_sum(
                MatchingProblem(signature, space.degrees, profile))

        for i in range(space.manifold_dim // 2 + 1):
            sign = (-1) ** i
            counts = Counter(
                tuple(sum(1 for v in subset if labels[v] == g)
                      for g in range(space.r))
                for subset in itertools.combinations(range(len(labels)), 2 * i))
            corrected = sum(k * sign * naive(sig) for sig, k in counts.items())
            assert expected_minor_sum_exact(space, i, profile) == corrected
            signatures = [m for m in itertools.product(
                *(range(nk + 1) for nk in space.dims)) if sum(m) == 2 * i]
            for m in signatures:
                assert matching_determinant_exact(MatchingProblem(
                    m, space.degrees, profile)) == sign * naive(m)
            paper = sum(sign * naive(m) for m in signatures)
            assert expected_minor_sum_exact(space, i, profile,
                                            mode="paper") == paper


# ---------------------------------------------------------------------------
# one signature per orbit of interchangeable factors
# ---------------------------------------------------------------------------

ORBIT_SPACES = ORACLE_SPACES + [
    SpaceSpec((6, 6, 6, 6), (1, 1, 1, 1)), SpaceSpec((2,) * 6, (1, 2) * 3),
    SpaceSpec((3, 3, 1, 1), (2, 2, 1, 3)), SpaceSpec((1,) * 8, (1, 2) * 4),
    SpaceSpec((2, 2, 2, 2), (1, 3, 1, 3))]


def test_signature_orbits_cover_the_ordered_signatures():
    # The oracle sorts the parts of each (n_k, w_k) class of every ordered
    # signature from itertools; the orbit walk must yield exactly those
    # sorted representatives, each with the number of ordered signatures
    # behind it.  Then sum(ways * g(m)) is the ordered sum for every g that
    # is symmetric inside the classes, such as the corrected summand.
    for space in ORBIT_SPACES:
        profile = variance_profile("def-d", space.degrees)
        classes = {}
        for k, key in enumerate(zip(space.dims, profile.within_offdiag)):
            classes.setdefault(key, []).append(k)

        def representative(m):
            out = list(m)
            for members in classes.values():
                for k, part in zip(members, sorted((m[k] for k in members),
                                                   reverse=True)):
                    out[k] = part
            return tuple(out)

        def g(m):
            return math.prod(map(math.comb, space.dims, m)) * \
                matching_determinant_exact(MatchingProblem(m, space.degrees, profile))

        for total in range(space.manifold_dim + 1):
            ordered = [m for m in itertools.product(
                *(range(nk + 1) for nk in space.dims)) if sum(m) == total]
            orbits = list(matchings._signature_orbits(
                space.dims, profile.within_offdiag, total))
            assert Counter(map(representative, ordered)) == dict(orbits)
            assert len(dict(orbits)) == len(orbits)
            assert sum(ways for _, ways in orbits) == len(ordered)
            assert sum(ways * g(m) for m, ways in orbits) == \
                sum(g(m) for m in ordered)


def test_orbit_walk_evaluates_one_determinant_per_orbit(monkeypatch):
    # Four interchangeable factors: one D(m) per partition of 2i into at
    # most four parts of size <= 6, 110 over all orders, where the ordered
    # walk evaluated all 1,201 signatures of even total.
    calls = []
    determinant = matchings.matching_determinant_exact
    monkeypatch.setattr(matchings, "matching_determinant_exact",
                        lambda p: calls.append(p) or determinant(p))
    space = SpaceSpec((6, 6, 6, 6), (1, 1, 1, 1))
    for i in range(13):
        expected_minor_sum_exact(space, i)
    assert len(calls) == 110


def test_many_alternating_factors():
    # Twelve two-dim factors in two classes; the ordered walk took 10-13 s
    # over all orders.  Order 1 pairs two vertices of one factor
    # (weight w_k) or of two factors (weight one); order 12 is the
    # single signature dims, with multiplicity one.
    space = SpaceSpec((2,) * 12, (1, 2) * 6)
    profile = variance_profile("weingarten", space.degrees)
    within = sum(math.comb(nk, 2) * wk
                 for nk, wk in zip(space.dims, profile.within_offdiag))
    across = sum(a * b for a, b in itertools.combinations(space.dims, 2))
    assert expected_minor_sum_exact(space, 1, profile) == \
        -(within + across)
    assert expected_minor_sum_exact(space, 12, profile) == \
        matching_determinant_exact(MatchingProblem(space.dims, space.degrees,
                                                   profile))


# ---------------------------------------------------------------------------
# errors the minor sums and tube volumes raise
# ---------------------------------------------------------------------------

def test_profile_length_mismatch_raises():
    space = SpaceSpec((2, 2), (2, 2))
    short = variance_profile("def-d", (2,))
    for i in (0, 1, 2):
        for mode in ("corrected", "paper"):
            with pytest.raises(DomainError):
                expected_minor_sum_exact(space, i, short, mode)
    with pytest.raises(DomainError):
        tube_volume(space, 0.1, profile=short)


def test_minor_sums_beyond_the_vertex_cap():
    space = SpaceSpec((14, 14), (1, 1))
    assert expected_minor_sum_exact(space, 1) == -196
    with pytest.raises(ResourceError):
        expected_minor_sum_exact(space, 13)
    with pytest.raises(ResourceError):
        expected_minor_sum_exact(space, 13, mode="paper")
    with pytest.raises(ResourceError):
        tube_volume(space, 0.1)


def test_many_singleton_groups_stay_cheap():
    # Groups that agree in size and weight are interchangeable, so the 24
    # one-vertex groups share one memo state per matched count, and the
    # signature walk visits one signature per orbit of the three classes.
    space = SpaceSpec((1,) * 24, (1, 2, 3) * 8)
    assert expected_minor_sum_exact(space, 1) == -math.comb(24, 2)
    assert expected_minor_sum_exact(space, 1, mode="paper") == -math.comb(24, 2)
    assert expected_minor_sum_exact(space, 12) == math.prod(range(1, 24, 2))


def test_low_orders_on_large_spaces():
    # The work follows the 2i vertices of the minors, not the dimension.
    # Degree 1 has no within edges, so only cross pairs count.
    assert expected_minor_sum_exact(SpaceSpec((40, 40, 40), (1, 1, 1)), 1) \
        == -3 * 40 * 40
    assert expected_minor_sum_exact(SpaceSpec((1200,), (2,)), 1) \
        == -math.comb(1200, 2) * 2
    # A tube at the 24-vertex cap gets every order; a larger one raises at
    # the first order above it.
    report = tube_volume(SpaceSpec((13, 11), (2, 1)), 0.01)
    assert [t.i for t in report.terms] == list(range(13))
    with pytest.raises(ResourceError):
        tube_volume(SpaceSpec((300, 300), (1, 1)), 0.01)
