"""Every input guard that no other test reaches raises DomainError."""

import numpy as np
import pytest

from svgeom import DomainError, MatchingProblem, SpaceSpec, tube_volume, variance_profile
from svgeom.bw_algebra import Tensor, apply_orthogonal, evaluate
from svgeom.geodesics_reach import curvature_closed_form
from svgeom.manifold import (
    SegrePoint,
    max_correlation_batch,
    normal_split,
    project_components,
)
from svgeom.matchings import expected_minor_sum_exact
from svgeom.montecarlo import McConfig, mc_minor_sum, mc_tube_volume
from svgeom.tube import (chi2_moment, radial_integral, radial_integrals,
                         sphere_volume, tube_coefficient)
from svgeom.weingarten import (
    WeingartenMatrix,
    principal_minor_sums_batch,
    sample_block_matrix_batch,
    sample_gaussian_weingarten,
    second_fundamental_form_fd,
)

QUADRATIC = SpaceSpec((1,), (2,))
CUBIC = SpaceSpec((1,), (3,))
E0 = Tensor(QUADRATIC, [1.0, 0.0, 0.0])
SEGRE = SpaceSpec((2, 2), (1, 1))
ONE_SAMPLE = McConfig(1)

# name: (call, a pattern of the guard's message, so that no other guard
# on the way can stand in for it)
_GUARDS = {
    "Tensor coefficient length": (
        lambda: Tensor(QUADRATIC, [1.0, 0.0]), "coefficient length"),
    "evaluate point length": (
        lambda: evaluate(E0, [1.0, 0.0, 0.0]), "coordinates"),
    "apply_orthogonal matrix count": (
        lambda: apply_orthogonal(E0, []), "expected 1 matrices"),
    "apply_orthogonal square matrix": (
        lambda: apply_orthogonal(E0, [np.ones((2, 3))]), "square"),
    "apply_orthogonal matrix size": (
        lambda: apply_orthogonal(E0, [np.eye(3)]), "factor dimension"),
    "curvature_closed_form lengths": (
        lambda: curvature_closed_form([1.0], [2, 3]), "equal length"),
    "SpaceSpec non-integer degree": (
        lambda: SpaceSpec((1,), (2.5,)), "degrees must be integers"),
    "SpaceSpec bool dim": (
        lambda: SpaceSpec((True,), (2,)), "dims must be integers"),
    "variance_profile non-integer degree": (
        lambda: variance_profile("def-d", [2.5]), "degrees must be integers"),
    "SegrePoint form count": (
        lambda: SegrePoint(SpaceSpec((1, 1), (1, 1)), ([1.0, 0.0],)),
        "one linear form per factor"),
    "SegrePoint form length": (
        lambda: SegrePoint(QUADRATIC, ([1.0, 0.0, 0.0],)), "form length"),
    "project_components space": (
        lambda: project_components(E0, normal_split(CUBIC)), "different spaces"),
    "max_correlation_batch shape": (
        lambda: max_correlation_batch(QUADRATIC, np.zeros((2, 4))), "batch shape"),
    "MatchingProblem non-integer group size": (
        lambda: MatchingProblem((2.5, 2), (1, 1)), "group sizes must be integers"),
    "MatchingProblem profile length": (
        lambda: MatchingProblem((2,), (2,), variance_profile("weingarten", (2, 3))),
        "profile length"),
    "chi2_moment arguments": (
        lambda: chi2_moment(-1, 2), "invalid moment arguments"),
    "chi2_moment bool order": (
        lambda: chi2_moment(True, 3), "moment arguments must be integers"),
    "chi2_moment non-integer order": (
        lambda: chi2_moment(1.5, 3), "moment arguments must be integers"),
    "chi2_moment bool degrees of freedom": (
        lambda: chi2_moment(1, np.True_), "moment arguments must be integers"),
    "sphere_volume bool dimension": (
        lambda: sphere_volume(True), "sphere dimension must be integers"),
    "sphere_volume non-integer dimension": (
        lambda: sphere_volume(2.5), "sphere dimension must be integers"),
    "tube_volume codimension": (
        lambda: tube_volume(SpaceSpec((1,), (1,)), 0.3), "positive codimension"),
    "WeingartenMatrix shape": (
        lambda: WeingartenMatrix(QUADRATIC, np.zeros((2, 2))), "1x1"),
    "sample_block_matrix_batch non-integer group size": (
        lambda: sample_block_matrix_batch((2.5, 1), variance_profile("def-d", (1, 1)),
                                          np.random.default_rng(0), 3),
        "group sizes must be integers"),
    "sample_block_matrix_batch profile length": (
        lambda: sample_block_matrix_batch((2, 1), variance_profile("weingarten", (2,)),
                                          np.random.default_rng(0), 3),
        "equal length"),
    "sample_gaussian_weingarten method": (
        lambda: sample_gaussian_weingarten(QUADRATIC, 1, "other"), "method must be"),
    "principal_minor_sums_batch order": (
        lambda: principal_minor_sums_batch(np.zeros((2, 3, 3)), 4), "out of range"),
    "second_fundamental_form_fd space": (
        lambda: second_fundamental_form_fd(QUADRATIC, [1.0], Tensor(CUBIC, np.zeros(4))),
        "different space"),
}

# A bool or a non-integer as the order i of 2i x 2i minors, to every caller
# of the one order check; numpy integers and 1.0 are accepted (test_tube).
_ORDER_CALLS = {
    "expected_minor_sum_exact corrected":
        lambda i: expected_minor_sum_exact(SEGRE, i, mode="corrected"),
    "expected_minor_sum_exact paper":
        lambda i: expected_minor_sum_exact(SEGRE, i, mode="paper"),
    "tube_coefficient": lambda i: tube_coefficient(i, SEGRE),
    "radial_integral": lambda i: radial_integral(i, SEGRE, 0.3),
    "mc_minor_sum": lambda i: mc_minor_sum(SEGRE, i, ONE_SAMPLE),
}
# A bool, numpy's too, or a string as the radius of a tube.
_RADIUS_CALLS = {
    "tube_volume": lambda eps: tube_volume(QUADRATIC, eps),
    "radial_integrals": lambda eps: radial_integrals(QUADRATIC, eps),
    "mc_tube_volume": lambda eps: mc_tube_volume(QUADRATIC, eps, ONE_SAMPLE),
}
# A negative, bool, float or string seed, to both callers of the one
# seed check; numpy integers are accepted (test_montecarlo).
_SEED_CALLS = {
    "McConfig": lambda seed: McConfig(1, seed),
    "sample_gaussian_weingarten assemble":
        lambda seed: sample_gaussian_weingarten(QUADRATIC, seed),
    "sample_gaussian_weingarten direct":
        lambda seed: sample_gaussian_weingarten(QUADRATIC, seed, "direct"),
}
for _name, _call in _SEED_CALLS.items():
    for _bad, _message in ((-1, "seed must be >= 0"),
                           (True, "seed must be an integer"),
                           (np.True_, "seed must be an integer"),
                           (1.5, "seed must be an integer"),
                           ("3", "seed must be an integer")):
        _GUARDS[f"{_name} seed {_bad!r}"] = (
            lambda call=_call, bad=_bad: call(bad), _message)
for _name, _call in _ORDER_CALLS.items():
    for _bad in (True, 1.5, "1"):
        _GUARDS[f"{_name} order {_bad!r}"] = (
            lambda call=_call, bad=_bad: call(bad), "minor order must be integers")
for _name, _call in _RADIUS_CALLS.items():
    for _bad in (True, np.True_, "0.3"):
        _GUARDS[f"{_name} radius {_bad!r}"] = (
            lambda call=_call, bad=_bad: call(bad), "radius must be a real number")


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_input_guard_raises(name):
    call, message = _GUARDS[name]
    with pytest.raises(DomainError, match=message):
        call()


def test_numpy_integer_dims_and_degrees_are_accepted():
    space = SpaceSpec(np.array([1, 2]), (np.int32(2), np.int64(1)))
    assert space.dims == (1, 2) and space.degrees == (2, 1)
    assert all(type(v) is int for v in space.dims + space.degrees)
    assert variance_profile("def-d", np.array([2, 1])) is \
        variance_profile("def-d", (2, 1))


def test_numpy_real_radii_are_accepted():
    want = tube_volume(QUADRATIC, 0.25).volume
    for eps in (np.float64(0.25), np.float32(0.25)):
        assert tube_volume(QUADRATIC, eps).volume == pytest.approx(want, rel=1e-7)


def test_integer_valued_moment_and_sphere_arguments_are_accepted():
    assert chi2_moment(np.int64(2), np.int32(7)) == chi2_moment(2, 7) == 63.0
    assert chi2_moment(2.0, 7.0) == 63.0
    for k in (np.int64(2), 2.0):
        assert sphere_volume(k) == sphere_volume(2)
