import itertools
import math
import sys

import numpy as np
import pytest

import svgeom.tube as tube_module
from svgeom import (
    DomainError,
    ResourceError,
    SpaceSpec,
    reach,
    tube_volume,
    variance_profile,
)
from svgeom.tube import (
    EXPONENT_CONVENTIONS,
    chi2_moment,
    manifold_volume,
    radial_integral,
    radial_integral_quadrature,
    radial_integrals,
    sphere_volume,
    tube_coefficient,
)
from svgeom.matchings import MINOR_MODES, expected_minor_sum_exact
from svgeom.weingarten import DEFAULT_PROFILE, PROFILE_NAMES, VarianceProfile

# The exact-tube benchmark's spaces.
EXACT_TUBE_SPACES = [
    ((6, 6, 6, 6), (1, 1, 1, 1)), ((8, 8, 8), (1, 1, 2)),
    ((3, 3, 3, 3), (2, 2, 2, 2)), ((12, 12), (1, 1)), ((4, 4, 4), (1, 1, 1)),
    ((8, 8), (2, 1)), ((6, 6), (2, 2)), ((5, 5), (1, 1)), ((4, 4), (1, 2)),
    ((2, 2, 2), (1, 2, 1))]


# ---------------------------------------------------------------------------
# sphere and manifold volumes
# ---------------------------------------------------------------------------

def test_sphere_volumes():
    assert sphere_volume(0) == pytest.approx(2.0, abs=1e-14)
    assert sphere_volume(1) == pytest.approx(2 * math.pi, abs=1e-13)
    assert sphere_volume(2) == pytest.approx(4 * math.pi, abs=1e-13)
    with pytest.raises(DomainError):
        sphere_volume(-1)


def test_sphere_volume_large_dimension_finite():
    # A direct gamma evaluation would overflow here; the log route survives.
    assert 0.0 < sphere_volume(400) < 1e-100


def test_manifold_volume_examples():
    assert manifold_volume(SpaceSpec((1,), (2,))) == pytest.approx(
        2 * math.sqrt(2) * math.pi, abs=1e-12)
    assert manifold_volume(SpaceSpec((1, 1), (1, 1))) == pytest.approx(
        2 * math.pi ** 2, abs=1e-12)


def test_manifold_volume_distinct_factor_dims():
    # Per-factor scaling: each factor contributes d^(n/2) separately.
    space = SpaceSpec((2, 1), (3, 2))
    expected = (3 ** 1.0 * sphere_volume(2)) * (2 ** 0.5 * sphere_volume(1)) / 2
    assert manifold_volume(space) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# radial integrals
# ---------------------------------------------------------------------------

def test_radial_integral_corrected_unit_case():
    space = SpaceSpec((1,), (2,))  # c = 1, n = 1
    assert radial_integral(0, space, math.pi / 2, "corrected") == \
        pytest.approx(1.0, abs=1e-12)


def test_radial_integral_paper_case():
    space = SpaceSpec((1,), (2,))
    assert radial_integral(0, space, math.pi / 2, "paper") == \
        pytest.approx(0.5, abs=1e-12)


def test_radial_integral_dual_evaluation():
    rng = np.random.default_rng(41)
    spaces = [SpaceSpec((1,), (2,)), SpaceSpec((1, 1), (1, 1)),
              SpaceSpec((2,), (2,)), SpaceSpec((2, 1), (2, 3)),
              SpaceSpec((1, 1, 1), (1, 1, 1))]
    checked = 0
    while checked < 50:
        space = spaces[int(rng.integers(len(spaces)))]
        i = int(rng.integers(space.manifold_dim // 2 + 1))
        eps = float(rng.uniform(0.05, math.pi / 2))
        convention = "corrected" if rng.random() < 0.5 else "paper"
        closed = radial_integral(i, space, eps, convention)
        quad = radial_integral_quadrature(i, space, eps, convention)
        assert abs(closed - quad) <= 1e-10
        checked += 1


def _beta_args(i, space, convention):
    """(p, q) of J_i = B_x(p, q) / 2 for the kernel sin^a cos^b."""
    c = space.normal_dim
    a = c - 1 + 2 * i if convention == "corrected" else c + 2 * i
    return (a + 1) / 2, (space.manifold_dim - 2 * i + 1) / 2


def _mp_radial(i, space, eps, convention):
    """J_i from mpmath's incomplete beta at 30 digits, exact float eps."""
    mpmath = pytest.importorskip("mpmath")
    p, q = _beta_args(i, space, convention)
    with mpmath.workdps(30):
        x = mpmath.sin(mpmath.mpf(eps)) ** 2
        return float(mpmath.betainc(p, q, 0, x) / 2)


def test_radial_integral_relative_accuracy():
    # Spaces with n <= 24 and codimension from 1 to over 6,000.  Only the
    # top order runs the continued fraction: high codimension puts
    # x = sin^2 eps below its mean p / (p + q), low codimension and larger
    # eps put it above, where the x <-> 1 - x symmetry applies, and
    # eps = pi/2 gives x = 1.  The lower orders come from the recurrence,
    # so an error in its direction or index shows at every one of them.
    spaces = [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)), ((3, 3), (2, 2)),
              ((1, 23), (1, 1)), ((24,), (2,)), ((12, 12), (1, 1)),
              ((4, 4, 4), (1, 2, 3)), ((8, 8, 8), (1, 1, 2)),
              ((6, 6, 6, 6), (1, 1, 1, 1)), ((3, 3, 3, 3), (2, 2, 2, 2))]
    sides = set()
    for dims, degrees in spaces:
        space = SpaceSpec(dims, degrees)
        top = space.manifold_dim // 2
        for convention in ("corrected", "paper"):
            for eps in (1e-3, 0.05, 0.2, 0.7, 1.2, 1.4, math.pi / 2):
                p, q = _beta_args(top, space, convention)
                x = math.sin(eps) ** 2
                sides.add("one" if x >= 1.0 else x > p / (p + q))
                values = radial_integrals(space, eps, convention)
                assert len(values) == top + 1
                for i, value in enumerate(values):
                    exact = _mp_radial(i, space, eps, convention)
                    if exact < sys.float_info.min:
                        continue
                    assert abs(value - exact) <= 1e-10 * exact, \
                        (dims, degrees, convention, eps, i, value, exact)
    assert sides == {False, True, "one"}


def test_radial_integral_is_an_entry_of_radial_integrals():
    space = SpaceSpec((2, 1), (2, 3))
    values = radial_integrals(space, 0.4, "paper")
    assert [radial_integral(i, space, 0.4, "paper")
            for i in range(len(values))] == list(values)


def test_tube_volume_runs_one_continued_fraction(monkeypatch):
    calls = []
    original = tube_module._log_beta_cf

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tube_module, "_log_beta_cf", counting)
    # Below and above the mean of the top order's incomplete beta.
    for dims, degrees, eps in (((6, 6, 6, 6), (1, 1, 1, 1), 0.05),
                               ((2, 1), (2, 3), 1.4)):
        calls.clear()
        tube_volume(SpaceSpec(dims, degrees), eps)
        assert len(calls) == 1


def test_tube_volume_at_quarter_turn():
    # Every sample of an unsplit first Simpson panel misses the kernel's
    # peak on the first two spaces.  On the others (sine exponent 52, 712
    # and 720 against cosine exponent 6) panels on the rising side passed
    # their error test with the peak split alone.  Either way the
    # cross-check reported a mismatch.
    for space in (SpaceSpec((2,), (3,)), SpaceSpec((6, 6, 6, 6), (1, 1, 1, 1)),
                  SpaceSpec((3, 5), (2, 1)), SpaceSpec((3, 7), (3, 2)),
                  SpaceSpec((1, 11), (1, 3))):
        report = tube_volume(space, math.pi / 2)
        for term in report.terms:
            exact = _mp_radial(term.i, space, math.pi / 2, "corrected")
            if exact >= sys.float_info.min:
                assert abs(term.j - exact) <= 1e-10 * exact


def _compositions(n, parts):
    """Every non-decreasing dims tuple of `parts` positive parts summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n // parts + 1):
        for rest in _compositions(n - first, parts - 1):
            if rest[0] >= first:
                yield (first,) + rest


def test_gauss_bonnet_closure():
    # At eps = pi/2 Weyl's expansion counts the critical points of a height
    # function on M with signs, half of them by the antipodal symmetry, so
    # volume / vol(S^N) = chi(M) / 2: 1 when every n_k is even, else 0.
    # Spaces: 1-3 factors, even n <= 12, degrees 1-3, positive codimension,
    # and a sphere volume that does not underflow.
    checked = 0
    for n in range(2, 13, 2):
        for r in (1, 2, 3):
            for dims in _compositions(n, r):
                for degrees in itertools.product((1, 2, 3), repeat=r):
                    space = SpaceSpec(dims, degrees)
                    sphere = sphere_volume(space.sphere_dim)
                    if space.normal_dim < 1 or sphere == 0.0:
                        continue
                    report = tube_volume(
                        space, math.pi / 2, "corrected", "corrected",
                        variance_profile("weingarten", degrees))
                    half_chi = 1 if all(nk % 2 == 0 for nk in dims) else 0
                    scale = max(1.0, sum(abs(t.contribution)
                                         for t in report.terms) / sphere)
                    assert abs(report.volume / sphere - half_chi) <= \
                        1e-9 * scale, (dims, degrees, report.volume / sphere)
                    checked += 1
    assert checked == 481
    # The def-d profile breaks the identity.
    for dims, degrees, ratio in (((4,), (3,), 225), ((2, 4), (2, 3), -450)):
        space = SpaceSpec(dims, degrees)
        report = tube_volume(space, math.pi / 2,
                             profile=variance_profile("def-d", degrees))
        assert report.volume / sphere_volume(space.sphere_dim) == \
            pytest.approx(ratio, rel=1e-9)


def test_segre_tube_fraction_is_a_power_of_sin_two_eps():
    # On (1,m)/(1,1) the squared best rank-one correlation of a uniform
    # unit 2 x (m+1) matrix is t = lambda_1 / (lambda_1 + lambda_2) for the
    # eigenvalues of its real Wishart matrix, and u = 2t - 1 has density
    # proportional to u (1 - u^2)^((m-2)/2) on [0, 1].  So for eps <= pi/4
    # the tube fills exactly sin(2 eps)^m of the sphere, under every
    # profile, as the profiles coincide at degree one.
    radii = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, math.pi / 4)
    for m in range(1, 9):
        space = SpaceSpec((1, m), (1, 1))
        sphere = sphere_volume(space.sphere_dim)
        for eps in radii:
            exact = math.sin(2.0 * eps) ** m
            for name in PROFILE_NAMES:
                report = tube_volume(space, eps, "corrected", "corrected",
                                     variance_profile(name, space.degrees))
                assert abs(report.volume / sphere - exact) <= 1e-12 * exact, \
                    (m, eps, name, report.volume / sphere, exact)
        # The paper exponent misses for every m (by 59-78 % at eps = 0.5),
        # and the paper minor mode from m = 2 on (by 7-24 %).
        exact = math.sin(1.0) ** m
        paper_exponent = tube_volume(space, 0.5, "paper").volume / sphere
        paper_minors = tube_volume(space, 0.5, "corrected",
                                   "paper").volume / sphere
        assert abs(paper_exponent / exact - 1.0) > 0.5
        if m == 1:
            assert paper_minors == pytest.approx(exact, rel=1e-12)
        else:
            assert abs(paper_minors / exact - 1.0) > 0.05


def test_radial_integral_domain_checks():
    space = SpaceSpec((1,), (2,))
    with pytest.raises(DomainError):
        radial_integral(1, space, 0.3)
    with pytest.raises(DomainError):
        radial_integral(0, space, 0.0)
    with pytest.raises(DomainError):
        radial_integral(0, space, 2.0)
    with pytest.raises(DomainError):
        radial_integral(0, space, 0.3, "bogus")


# ---------------------------------------------------------------------------
# moments and coefficients
# ---------------------------------------------------------------------------

def test_chi2_moments():
    assert chi2_moment(0, 7) == 1.0
    assert chi2_moment(1, 7) == 7.0
    assert chi2_moment(2, 7) == 7.0 * 9.0


def test_tube_coefficient_base():
    assert tube_coefficient(0, SpaceSpec((2, 1), (1, 3))) == 1.0


def test_tube_coefficient_segre_1_1():
    space = SpaceSpec((1, 1), (1, 1))
    assert space.normal_dim == 1
    assert tube_coefficient(1, space) == pytest.approx(-1.0, abs=1e-14)


def test_tube_coefficient_vanishes_beyond_range():
    space = SpaceSpec((1,), (3,))
    report = tube_volume(space, 0.3)
    assert [t.i for t in report.terms] == [0]


def test_tube_coefficient_index_checks():
    space = SpaceSpec((2,), (2,))
    for i in (-1, 2):
        with pytest.raises(DomainError):
            tube_coefficient(i, space)


def test_an_integral_float_order_is_that_integer_whichever_runs_first():
    space = SpaceSpec((2, 2), (1, 1))
    for orders in ((1.0, 1), (1, 1.0), (np.int64(1), 1)):
        tube_module._tube_plan.cache_clear()
        got = [tube_coefficient(i, space).hex() for i in orders]
        assert got[0] == got[1] == (-1.0).hex()


# ---------------------------------------------------------------------------
# coefficient memo: one plan per (space, profile, minor mode)
# ---------------------------------------------------------------------------

MEMO_SPACES = [((1,), (2,)), ((2,), (3,)), ((8,), (2,)), ((1, 1), (1, 2)),
               ((2, 2), (1, 1)), ((3, 2), (2, 1)), ((4, 4), (1, 2)),
               ((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (1, 1, 2)),
               ((3, 3, 2), (1, 2, 1))]


@pytest.fixture
def minor_sum_calls(monkeypatch):
    """Arguments of every exact minor sum the tube module asks for."""
    calls = []

    def counting(*args):
        calls.append(args)
        return expected_minor_sum_exact(*args)

    monkeypatch.setattr(tube_module, "expected_minor_sum_exact", counting)
    return calls


def plan_info():
    return tube_module._tube_plan.cache_info()


@pytest.mark.parametrize("dims,degrees", MEMO_SPACES)
def test_coefficient_memo_is_bit_identical(dims, degrees):
    space = SpaceSpec(dims, degrees)
    c = space.normal_dim
    for name, mode in itertools.product(PROFILE_NAMES, MINOR_MODES):
        profile = variance_profile(name, degrees)
        want = [float(expected_minor_sum_exact(space, i, profile, mode))
                / chi2_moment(i, c)
                for i in range(space.manifold_dim // 2 + 1)]
        got = tube_module._tube_plan(space, profile, mode).coefficients
        assert [a.hex() for a in got] == [a.hex() for a in want]
        assert [tube_coefficient(i, space, profile, mode).hex()
                for i in range(len(want))] == [a.hex() for a in want]


def test_coefficient_memo_serves_a_sweep_over_radii(minor_sum_calls):
    space = SpaceSpec((3, 2), (2, 1))
    weingarten = variance_profile("weingarten", space.degrees)
    first = tube_volume(space, 0.1, profile=weingarten)
    orders = len(first.terms)
    assert len(minor_sum_calls) == orders
    minor_sum_calls.clear()
    second = tube_volume(space, 0.4, "paper", profile=weingarten)
    assert minor_sum_calls == []
    assert [t.a for t in second.terms] == [t.a for t in first.terms]
    tube_volume(space, 0.4, profile=variance_profile("corollary",
                                                      space.degrees))
    assert len(minor_sum_calls) == orders
    minor_sum_calls.clear()
    tube_volume(space, 0.4, minor_mode="paper", profile=weingarten)
    assert len(minor_sum_calls) == orders
    assert plan_info().currsize == 3


def test_default_profile_shares_one_memo_entry():
    space = SpaceSpec((2, 1), (2, 2))
    implicit = tube_volume(space, 0.3)
    explicit = tube_volume(space, 0.3, profile=variance_profile(
        DEFAULT_PROFILE, space.degrees))
    assert implicit.to_json_dict() == explicit.to_json_dict()
    assert plan_info().misses == 1
    assert plan_info().currsize == 1


def test_equal_spaces_and_profiles_share_memo_entries():
    # Specs and profiles are rebuilt per call by the CLI and the benchmark
    # worker; equal ones must hash equal and hit the same plan.
    def volume(dims, degrees):
        return tube_volume(SpaceSpec(dims, degrees), 0.3,
                           profile=variance_profile("weingarten", degrees))

    first = volume((2, 1), (2, 2))
    hits = plan_info().hits
    again = volume([2, 1], [2.0, 2])
    assert again.to_json_dict() == first.to_json_dict()
    assert plan_info().hits == hits + 1
    assert plan_info().misses == 1
    assert plan_info().currsize == 1


def test_a_sweep_over_radii_and_conventions_builds_one_plan(
        minor_sum_calls):
    space = SpaceSpec((3, 2), (2, 1))
    profile = variance_profile("weingarten", space.degrees)
    tube_volume(space, 0.1, profile=profile)
    minor_sum_calls.clear()
    for eps in (0.05, 0.3, 0.6, math.pi / 2):
        for convention in EXPONENT_CONVENTIONS:
            tube_volume(space, eps, convention, profile=profile)
    assert minor_sum_calls == []
    assert plan_info().misses == 1
    assert plan_info().currsize == 1


def test_named_profiles_are_interned():
    profile = variance_profile("weingarten", [2.0, 2])
    assert variance_profile("weingarten", (2, 2)) is profile
    assert variance_profile("corollary", (2, 2)) is not profile
    # A directly built equal profile is a different object with the same
    # plan.
    direct = VarianceProfile("weingarten", (0.5, 0.5))
    assert direct is not profile and direct == profile
    space = SpaceSpec((2, 1), (2, 2))
    first = tube_volume(space, 0.3, profile=profile)
    hits = plan_info().hits
    again = tube_volume(space, 0.3, profile=direct)
    assert again.to_json_dict() == first.to_json_dict()
    assert plan_info().hits == hits + 1
    assert plan_info().currsize == 1


@pytest.mark.parametrize("dims,degrees", EXACT_TUBE_SPACES)
def test_tube_volume_terms_do_not_drift_from_their_parts(dims, degrees):
    # The plan and the per-call radial integrals must give what the public
    # per-order functions give, bit for bit.
    space = SpaceSpec(dims, degrees)
    top = reach(space).reach
    radii = (0.05, 0.7, math.nextafter(top, 0.0), top, math.pi / 2)
    for name in PROFILE_NAMES:
        profile = variance_profile(name, degrees)
        for eps, convention in itertools.product(radii, EXPONENT_CONVENTIONS):
            report = tube_volume(space, eps, convention, profile=profile)
            js = radial_integrals(space, eps, convention)
            assert [t.a.hex() for t in report.terms] == [
                tube_coefficient(t.i, space, profile).hex()
                for t in report.terms]
            assert [t.j.hex() for t in report.terms] == [j.hex() for j in js]
            assert report.validity == (eps < top)
    assert tube_volume(space, top).validity is False
    assert tube_volume(space, math.nextafter(top, 0.0)).validity is True


@pytest.mark.parametrize("kwargs", [
    {"eps": 3.0}, {"eps": math.nan}, {"eps": -0.1},
    {"eps": 0.3, "exponent_convention": "bogus"}])
def test_invalid_arguments_raise_before_coefficient_work(minor_sum_calls,
                                                         kwargs):
    space = SpaceSpec((6, 6, 6, 6), (1, 1, 1, 1))
    with pytest.raises(DomainError):
        tube_volume(space, **kwargs)
    assert minor_sum_calls == []
    assert plan_info().misses == 0


def test_orders_past_the_matching_cap_are_not_cached(minor_sum_calls):
    # Order 13 needs 26 matching vertices, past the cap; orders 0..12 fit.
    # A failing plan keeps none of them, so every call redoes all 14.
    space = SpaceSpec((13, 13), (1, 1))
    for _ in range(2):
        minor_sum_calls.clear()
        with pytest.raises(ResourceError):
            tube_volume(space, 0.1)
        assert len(minor_sum_calls) == 14
        assert plan_info().currsize == 0
    with pytest.raises(ResourceError):
        tube_coefficient(13, space)
    assert plan_info().currsize == 0


def test_low_orders_of_a_large_space_stay_reachable():
    space = SpaceSpec((40, 40, 40), (1, 1, 1))
    profile = variance_profile(DEFAULT_PROFILE, space.degrees)
    want = (float(expected_minor_sum_exact(space, 1, profile, "corrected"))
            / chi2_moment(1, space.normal_dim))
    assert tube_coefficient(1, space).hex() == want.hex()
    assert plan_info().currsize == 0


# ---------------------------------------------------------------------------
# assembled volumes
# ---------------------------------------------------------------------------

def test_tube_volume_v12_corrected():
    space = SpaceSpec((1,), (2,))
    for eps in (0.1, 0.3):
        report = tube_volume(space, eps)
        assert report.volume == pytest.approx(
            4 * math.sqrt(2) * math.pi * math.sin(eps), rel=1e-12)
        assert report.validity


def test_tube_volume_v12_paper_literal():
    space = SpaceSpec((1,), (2,))
    report = tube_volume(space, 0.3, exponent_convention="paper")
    assert report.volume == pytest.approx(
        2 * math.sqrt(2) * math.pi * math.sin(0.3) ** 2, rel=1e-12)


def test_tube_volume_segre_breakdown():
    space = SpaceSpec((1, 1), (1, 1))
    report = tube_volume(space, 0.2)
    assert [t.i for t in report.terms] == [0, 1]
    assert report.terms[0].a == 1.0
    assert report.terms[1].a == pytest.approx(-1.0, abs=1e-14)
    assert sum(t.contribution for t in report.terms) == pytest.approx(
        report.volume, rel=1e-14)
    assert report.volume == pytest.approx(
        2 * math.pi ** 2 * math.sin(0.4), rel=1e-12)


def test_tube_volume_covers_sphere_at_reach():
    # For this space the medial axis has measure zero, so the tube at the
    # reach radius fills the whole ambient sphere.
    space = SpaceSpec((1, 1), (1, 1))
    report = tube_volume(space, math.pi / 4)
    assert report.volume == pytest.approx(sphere_volume(3), rel=1e-12)


def test_tube_volume_monotone_and_bounded():
    for dims, degrees in [((1,), (2,)), ((1, 1), (1, 1)), ((2,), (2,))]:
        space = SpaceSpec(dims, degrees)
        top = reach(space).reach
        grid = np.linspace(top / 20, top * 0.999, 20)
        values = [tube_volume(space, float(e)).volume for e in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= sphere_volume(space.sphere_dim) + 1e-9 for v in values)


def test_tube_volume_leading_order():
    for dims, degrees in [((1,), (2,)), ((1, 1), (1, 1)), ((2, 1), (2, 3))]:
        space = SpaceSpec(dims, degrees)
        eps = 1e-2
        report = tube_volume(space, eps)
        c = space.normal_dim
        shell = sphere_volume(c - 1) * _sin_power_integral(c - 1, eps)
        ratio = report.volume / (shell * manifold_volume(space))
        assert abs(ratio - 1.0) <= 0.01


def _sin_power_integral(power, eps, steps=20001):
    grid = np.linspace(0.0, eps, steps)
    return float(np.trapezoid(np.sin(grid) ** power, grid))


def test_log_volume_survives_underflow():
    # Every J_i of this space underflows at eps = 0.05, and so does the
    # volume; the log-space sum does not.
    mpmath = pytest.importorskip("mpmath")
    space = SpaceSpec((6, 6, 6, 6), (1, 1, 1, 1))
    report = tube_volume(space, 0.05)
    assert report.volume == 0.0
    m, c = space.manifold_dim, space.normal_dim
    with mpmath.workdps(30):
        x = mpmath.sin(mpmath.mpf(0.05)) ** 2
        total = sum(t.a * mpmath.betainc(mpmath.mpf(c + 2 * t.i) / 2,
                                         mpmath.mpf(m - 2 * t.i + 1) / 2,
                                         0, x) / 2 for t in report.terms)
        prefactor = mpmath.mpf(1)
        for n, d in zip(space.dims, space.degrees):
            prefactor *= mpmath.mpf(d) ** (mpmath.mpf(n) / 2) * \
                2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / \
                mpmath.gamma(mpmath.mpf(n + 1) / 2)
        prefactor /= 2 ** (space.r - 1)
        prefactor *= 2 * mpmath.pi ** (mpmath.mpf(c) / 2) / \
            mpmath.gamma(mpmath.mpf(c) / 2)
        exact = float(mpmath.log(prefactor * total))
    assert abs(report.log_volume - exact) <= 1e-10


def test_tiny_radii_keep_every_digit():
    # Below eps of about 1.5e-154, sin(eps)^2 is subnormal, and below about
    # 1.5e-162 it is 0, though the volumes here are normal doubles or, for
    # log_volume, finite logs.
    space = SpaceSpec((1,), (2,))
    profile = variance_profile("weingarten", space.degrees)
    for eps in (1e-160, 1e-200, 1e-300):
        exact = 4 * math.sqrt(2) * math.pi * math.sin(eps)
        report = tube_volume(space, eps, profile=profile)
        assert abs(report.volume - exact) <= 1e-12 * exact, eps
    # sin(2 eps)^3 of the sphere S^7 (see the test above), which underflows.
    space = SpaceSpec((1, 3), (1, 1))
    eps = 1e-200
    report = tube_volume(space, eps, profile=variance_profile(
        "weingarten", space.degrees))
    exact = 3 * math.log(math.sin(2 * eps)) + math.log(sphere_volume(7))
    assert report.volume == 0.0
    assert abs(report.log_volume - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("dims,degrees", EXACT_TUBE_SPACES)
def test_log_volume_is_finite_and_matches_volume(dims, degrees):
    # Over the benchmark's radius range; on five of these spaces `volume`
    # underflows to 0.0.
    space = SpaceSpec(dims, degrees)
    for name in PROFILE_NAMES:
        for eps in (0.05, 0.3, 0.7):
            report = tube_volume(space, eps,
                                 profile=variance_profile(name, degrees))
            assert math.isfinite(report.log_volume)
            assert report.to_json_dict()["log_volume"] == report.log_volume
            if report.volume >= sys.float_info.min:
                assert abs(report.log_volume - math.log(report.volume)) \
                    <= 1e-12 * max(1.0, abs(report.log_volume))


def test_tube_volume_flags_invalid_radius():
    space = SpaceSpec((1,), (2,))
    report = tube_volume(space, 1.0)
    assert not report.validity


def test_tube_volume_profile_switch():
    space = SpaceSpec((2,), (2,))
    default = tube_volume(space, 0.3)
    shaped = tube_volume(space, 0.3,
                         profile=variance_profile("weingarten", space.degrees))
    assert default.volume != shaped.volume


def test_tube_report_json_and_csv(tmp_path):
    space = SpaceSpec((1, 1), (1, 1))
    report = tube_volume(space, 0.2)
    doc = report.to_json_dict()
    assert doc["conventions"] == {"exponent": "corrected",
                                  "minor_mode": "corrected",
                                  "profile": "def-d"}
    path = tmp_path / "terms.csv"
    report.terms_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,a_i,J_i,contribution"
    assert len(lines) == 3
