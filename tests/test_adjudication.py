"""Adjudication of the selectable conventions against independent oracles.

Three published normalizations of the block-Gaussian shape operator are
implemented as variance profiles; these tests determine which one is
self-consistent with the assembled operator, and pin down the volume
scaling of the product-of-powers parametrization by finite differences.
The exponent and multiplicity conventions are adjudicated in the
acceptance suite (tube and minor criteria).
"""

import math

import numpy as np
import pytest
from scipy import stats

from svgeom import (
    SpaceSpec,
    McConfig,
    expected_minor_sum,
    mc_minor_sum,
    mc_tube_volume,
    tube_volume,
    variance_profile,
)
from svgeom.manifold import (
    SegrePoint,
    embed,
    orthonormal_complement,
    random_segre_point,
)
from svgeom.weingarten import (
    PROFILE_NAMES,
    gaussian_weingarten_batch,
    sample_block_matrix_batch,
)


def test_only_one_profile_is_self_consistent_at_degree_three():
    space = SpaceSpec((2,), (3,))
    rng = np.random.default_rng(51)
    assembled = np.linalg.det(gaussian_weingarten_batch(space, rng, 20_000))
    pvalues = {}
    for name in PROFILE_NAMES:
        profile = variance_profile(name, space.degrees)
        direct = np.linalg.det(
            sample_block_matrix_batch(space.dims, profile, rng, 20_000))
        pvalues[name] = stats.ks_2samp(assembled, direct).pvalue
    assert pvalues["weingarten"] > 0.001
    assert pvalues["def-d"] < 1e-6
    assert pvalues["corollary"] < 1e-6


def test_minor_level_adjudication_at_degree_three():
    space = SpaceSpec((2,), (3,))
    stats_mc = mc_minor_sum(space, 1, McConfig(100_000, seed=52))
    predictions = {name: expected_minor_sum(
        space, 1, variance_profile(name, space.degrees))
        for name in PROFILE_NAMES}
    assert predictions["weingarten"] == pytest.approx(-2 / 3, abs=1e-14)
    assert predictions["def-d"] == -6.0
    assert predictions["corollary"] == -1.5
    assert abs(stats_mc.mean - predictions["weingarten"]) <= \
        3 * stats_mc.std_error
    for name in ("def-d", "corollary"):
        assert abs(stats_mc.mean - predictions[name]) > 10 * stats_mc.std_error


def test_tube_level_adjudication_quadratic_surface():
    # At degree two the corollary scale coincides with the assembled one,
    # so the tube oracle rejects only the default edge-weight profile here.
    space = SpaceSpec((2,), (2,))
    est = mc_tube_volume(space, 0.4, McConfig(300_000, seed=53))
    by_profile = {name: tube_volume(
        space, 0.4, profile=variance_profile(name, space.degrees)).volume
        for name in PROFILE_NAMES}
    assert by_profile["weingarten"] == by_profile["corollary"]
    assert abs(est.volume - by_profile["weingarten"]) <= 3 * est.std_error
    assert abs(est.volume - by_profile["def-d"]) > 10 * est.std_error


def test_volume_scaling_is_per_factor():
    # The parametrization by tuples of unit forms scales k-dimensional
    # volume by prod_i d_i^(n_i / 2); measured from finite differences of
    # the embedding, independent of any closed form.
    rng = np.random.default_rng(54)
    for dims, degrees in [((2, 1), (2, 1)), ((2, 1), (3, 2)), ((1, 2), (2, 3))]:
        space = SpaceSpec(dims, degrees)
        p = random_segre_point(space, rng)
        h = 1e-5
        rows = []
        for i, n in enumerate(space.dims):
            comp = orthonormal_complement(p.forms[i])
            for k in range(n):
                v = comp[:, k]
                plus_forms = list(p.forms)
                minus_forms = list(p.forms)
                plus_forms[i] = math.cos(h) * p.forms[i] + math.sin(h) * v
                minus_forms[i] = math.cos(h) * p.forms[i] - math.sin(h) * v
                plus = embed(SegrePoint(space, tuple(plus_forms), p.sign))
                minus = embed(SegrePoint(space, tuple(minus_forms), p.sign))
                rows.append((plus.coeffs - minus.coeffs) / (2 * h))
        jac = np.stack(rows)
        gram_det = float(np.linalg.det(jac @ jac.T))
        per_factor = math.prod(d ** n for n, d in zip(dims, degrees))
        single_power = math.prod(degrees) ** space.manifold_dim
        assert gram_det == pytest.approx(per_factor, rel=1e-6)
        if per_factor != single_power:
            assert abs(gram_det - single_power) > 0.1 * single_power
