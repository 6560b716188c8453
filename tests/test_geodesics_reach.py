import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

from svgeom import DomainError, SpaceSpec, reach
from svgeom.bw_algebra import bw_inner
from svgeom.geodesics_reach import (
    _critical_speeds,
    bottleneck_check,
    curvature_closed_form,
    extremal_curvature,
    geodesic_eval,
    optimize_curvature,
    rho1,
    rho2,
)
from svgeom.manifold import base_point, embed, veronese_embed

from oracles import curve_component_norms


# ---------------------------------------------------------------------------
# geodesic evaluation
# ---------------------------------------------------------------------------

def test_geodesic_starts_at_base_point():
    space = SpaceSpec((1, 1), (2, 3))
    assert np.allclose(geodesic_eval(space, [0.6, 0.8], 0.0).coeffs,
                       embed(base_point(space)).coeffs, atol=1e-15)


def test_geodesic_reaches_rotated_power():
    space = SpaceSpec((1,), (2,))
    got = geodesic_eval(space, [1.0], math.pi * math.sqrt(2) / 2)
    assert np.allclose(got.coeffs, [0.0, 0.0, 1.0], atol=1e-12)


def test_geodesic_unit_speed():
    space = SpaceSpec((1, 1), (2, 3))
    v = [0.6, 0.8]
    h = 1e-5
    vel = (geodesic_eval(space, v, h).coeffs -
           geodesic_eval(space, v, -h).coeffs) / (2 * h)
    assert abs(np.linalg.norm(vel) - 1.0) <= 1e-8


def test_geodesic_requires_unit_speed_vector():
    # A non-unit v, a v of the wrong length and a NaN v.
    space = SpaceSpec((1, 1), (2, 3))
    for v in ([0.5, 0.0], [1.0], [math.nan, 1.0]):
        with pytest.raises(DomainError):
            geodesic_eval(space, v, 0.1)


def test_constant_speed_curves_have_no_tangential_acceleration():
    rng = np.random.default_rng(31)
    space = SpaceSpec((1, 1, 1), (2, 1, 3))
    for _ in range(10):
        theta = rng.standard_normal(space.r)
        theta /= np.linalg.norm(theta)
        tangential, _ = curve_component_norms(space, theta)
        assert tangential <= 1e-6


@pytest.mark.parametrize("dims,degrees", [((2, 3), (2, 1)), ((3, 2), (3, 2)),
                                          ((2, 1, 2), (1, 2, 1))])
def test_tangent_coordinate_curves_have_no_tangential_acceleration(dims,
                                                                   degrees):
    # Blocks pointing off the first axes of their factors, and one zero
    # block, still give curves with no tangential acceleration.
    space = SpaceSpec(dims, degrees)
    rng = np.random.default_rng(34)
    draws = [rng.standard_normal(space.manifold_dim) for _ in range(5)]
    zero_block = rng.standard_normal(space.manifold_dim)
    zero_block[:dims[0]] = 0.0
    for v in draws + [zero_block]:
        tangential, _ = curve_component_norms(space, v / np.linalg.norm(v))
        assert tangential <= 1e-6


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_numeric_curvature_examples():
    assert curve_component_norms(
        SpaceSpec((1,), (2,)), [1.0])[1] == pytest.approx(1.0, abs=1e-6)
    assert curve_component_norms(
        SpaceSpec((1, 1), (1, 1)), [1.0, 0.0])[1] == pytest.approx(0.0, abs=1e-6)


def test_numeric_matches_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(100):
        r = int(rng.integers(1, 4))
        degrees = tuple(int(rng.integers(1, 5)) for _ in range(r))
        dims = tuple(int(rng.integers(1, 3)) for _ in range(r))
        space = SpaceSpec(dims, degrees)
        theta = rng.standard_normal(r)
        theta /= np.linalg.norm(theta)
        v = np.concatenate([t * np.eye(n)[0] for n, t in zip(dims, theta)])
        assert curve_component_norms(space, v)[1] == pytest.approx(
            curvature_closed_form(theta, degrees), abs=1e-6)


def test_closed_form_examples():
    degrees = (2, 3)
    d = sum(degrees)
    theta = tuple(math.sqrt(k / d) for k in degrees)
    assert curvature_closed_form(theta, degrees) == pytest.approx(
        math.sqrt(2 * (d - 1) / d), abs=1e-14)
    assert curvature_closed_form((1.0,), (4,)) == pytest.approx(
        math.sqrt(2 * 3 / 4), abs=1e-14)
    assert curvature_closed_form((0.0, 1.0), degrees) == pytest.approx(
        math.sqrt(2 * 2 / 3), abs=1e-14)


def test_closed_form_rejects_bad_speeds():
    with pytest.raises(DomainError):
        curvature_closed_form((1.0, 1.0), (2, 3))


def test_extremal_curvature_examples():
    ext = extremal_curvature(SpaceSpec((1, 1), (2, 3)))
    assert ext.max_value == pytest.approx(math.sqrt(1.6), abs=1e-15)
    assert ext.min_value == pytest.approx(1.0, abs=1e-15)
    ext = extremal_curvature(SpaceSpec((1, 1, 1), (1, 1, 1)))
    assert ext.max_value == pytest.approx(math.sqrt(4 / 3), abs=1e-15)
    assert ext.min_value == 0.0


def _degree_grid():
    """Every tuple of at most four factor degrees in 1..6 with total >= 2."""
    return [degrees for r in range(1, 5)
            for degrees in itertools.product(range(1, 7), repeat=r)
            if sum(degrees) >= 2]


def test_extremal_curvature_numeric_agreement():
    # The multi-start search, an independent oracle, on random tuples.
    rng = np.random.default_rng(33)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        degrees = tuple(int(rng.integers(1, 7)) for _ in range(r))
        if sum(degrees) < 2:
            degrees = (2,) + degrees[1:]
        ext = extremal_curvature(SpaceSpec((1,) * r, degrees))
        searched_max, _ = optimize_curvature(degrees, minimize=False)
        searched_min, _ = optimize_curvature(degrees, minimize=True)
        assert abs(searched_max - ext.max_value) <= 1e-9
        assert abs(searched_min - ext.min_value) <= 1e-9
    # The critical-point check, on the whole grid.
    for degrees in _degree_grid():
        ext = extremal_curvature(SpaceSpec((1,) * len(degrees), degrees))
        assert abs(ext.numeric_max - ext.max_value) <= 1e-12, degrees
        assert abs(ext.numeric_min - ext.min_value) <= 1e-12, degrees


def test_critical_speeds_are_stationary_on_every_subset_degree():
    # One unit speed vector per attainable subset degree D_S, at which the
    # gradient of q(theta) = sum theta_i^4 / d_i is normal to the sphere.
    for degrees in _degree_grid():
        dd = np.asarray(degrees, dtype=float)
        speeds = _critical_speeds(degrees)
        grad = 4.0 * speeds ** 3 / dd
        tangential = grad - np.sum(grad * speeds, axis=1,
                                   keepdims=True) * speeds
        assert np.max(np.linalg.norm(tangential, axis=1)) <= 1e-13, degrees
        assert np.max(np.abs(np.linalg.norm(speeds, axis=1) - 1.0)) <= 1e-14
        attainable = {sum(sub) for size in range(1, len(degrees) + 1)
                      for sub in itertools.combinations(degrees, size)}
        subset_degrees = [int(dd[row > 0].sum()) for row in speeds]
        assert sorted(subset_degrees) == sorted(attainable), degrees


def test_extremal_curvature_requires_degree_two():
    with pytest.raises(DomainError):
        extremal_curvature(SpaceSpec((2,), (1,)))


def test_subset_support_critical_values():
    # Restricted to a support set, the interior critical point is the
    # maximum on that subsphere, with value determined by the subset degree;
    # the restricted minimum comes from the smallest degree in the subset.
    degrees = (1, 2, 3, 1)
    for size in range(1, 5):
        for support in itertools.combinations(range(4), size):
            sub = tuple(degrees[i] for i in support)
            d_subset = sum(sub)
            vmax, _ = optimize_curvature(sub, minimize=False)
            assert vmax == pytest.approx(
                math.sqrt(2 * (d_subset - 1) / d_subset), abs=1e-9)
            d_low = min(sub)
            vmin, _ = optimize_curvature(sub, minimize=True)
            assert vmin == pytest.approx(
                math.sqrt(2 * (d_low - 1) / d_low), abs=1e-9)


def test_subset_maxima_monotone_in_subset_degree():
    # The maximum of `extremal_curvature` on the space of each factor subset
    # S is the full space's critical value on support S, one value per
    # subset degree D_S, the values `_critical_speeds` stands for; and it
    # rises strictly with D_S.
    for degrees in [(1, 1, 2), (2, 3), (1, 2, 4), (3, 3, 1), (1, 1, 1, 1),
                    (2, 5, 1, 3)]:
        r = len(degrees)
        maxima = {}
        for size in range(1, r + 1):
            for support in itertools.combinations(range(r), size):
                sub = tuple(degrees[i] for i in support)
                if sum(sub) < 2:
                    continue
                ext = extremal_curvature(SpaceSpec((1,) * size, sub))
                speeds = np.zeros(r)
                speeds[list(support)] = np.sqrt(np.asarray(sub) / sum(sub))
                assert ext.max_value == pytest.approx(
                    curvature_closed_form(speeds, degrees), abs=1e-14)
                assert maxima.setdefault(sum(sub), ext.max_value) == \
                    pytest.approx(ext.max_value, abs=1e-14)
        critical = sorted(curvature_closed_form(s, degrees)
                          for s in _critical_speeds(degrees))
        ordered = [maxima[total] for total in sorted(maxima)]
        assert np.all(np.diff(ordered) > 1e-3), degrees
        assert ordered == pytest.approx(critical[-len(ordered):], abs=1e-14)


# ---------------------------------------------------------------------------
# the two radii and the reach
# ---------------------------------------------------------------------------

def test_rho1_values():
    assert rho1(SpaceSpec((1,), (2,))) == pytest.approx(1.0, abs=1e-15)
    assert rho1(SpaceSpec((1,), (6,))) == pytest.approx(
        math.sqrt(0.6), abs=1e-15)


def test_rho1_is_reciprocal_max_curvature():
    for dims, degrees in [((1,), (2,)), ((1, 1), (2, 3)), ((2, 1), (1, 4))]:
        space = SpaceSpec(dims, degrees)
        assert rho1(space) * extremal_curvature(space).max_value == \
            pytest.approx(1.0, abs=1e-14)


def test_rho1_requires_degree_two():
    with pytest.raises(DomainError):
        rho1(SpaceSpec((3,), (1,)))


def test_rho2_constant():
    assert rho2(SpaceSpec((1,), (2,))) == math.pi / 4


def test_bottleneck_example_v12():
    e = embed(base_point(SpaceSpec((1,), (2,))))
    f = veronese_embed((0.0, 1.0), 2)
    assert bw_inner(e, f) == 0.0


def test_bottleneck_verification_suite():
    for dims, degrees in [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)),
                          ((1, 1), (2, 1)), ((2, 2, 1, 1), (1, 1, 1, 1))]:
        report = bottleneck_check(SpaceSpec(dims, degrees), samples=100)
        assert report["passed"], report


def test_bottleneck_rejects_degenerate_space():
    with pytest.raises(DomainError):
        bottleneck_check(SpaceSpec((2,), (1,)), samples=1)


def test_reach_cases():
    report = reach(SpaceSpec((1,), (2,)))
    assert report.reach == pytest.approx(math.pi / 4, abs=1e-15)
    assert report.regime == "bottleneck-limited"
    report = reach(SpaceSpec((1, 1), (2, 3)))  # total degree 5
    assert report.reach == math.pi / 4
    assert report.rho1 == pytest.approx(math.sqrt(5 / 8), abs=1e-15)
    report = reach(SpaceSpec((1,), (6,)))
    assert report.reach == pytest.approx(math.sqrt(0.6), abs=1e-15)
    assert report.regime == "curvature-limited"


def test_reach_is_min_of_radii():
    for dims, degrees in [((1,), (2,)), ((1,), (9,)), ((1, 1), (3, 3))]:
        space = SpaceSpec(dims, degrees)
        report = reach(space)
        assert report.reach == min(report.rho1, report.rho2)


def test_reach_report_json():
    doc = asdict(reach(SpaceSpec((1,), (2,))))
    assert set(doc) == {"rho1", "rho2", "reach", "regime"}


def test_geodesic_custom_targets():
    # The factor turns toward the direction of its block, (0, 0.6, 0.8).
    space = SpaceSpec((2,), (2,))
    point = geodesic_eval(space, [0.6, 0.8], 0.3)
    assert abs(point.norm - 1.0) <= 1e-12
    ang = 0.3 / math.sqrt(2)
    ell = (math.cos(ang), 0.6 * math.sin(ang), 0.8 * math.sin(ang))
    assert np.allclose(point.coeffs, veronese_embed(ell, 2).coeffs,
                       atol=1e-15)
