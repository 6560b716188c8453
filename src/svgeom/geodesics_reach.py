"""Curves through the base point, curvature extremes, and the reach.

A curve through the base point is given by its unit tangent coordinates
v in R^n, one block b_i of n_i coordinates per factor.  Along the curve,
factor i turns the first coordinate axis toward the direction of b_i at
angular rate |b_i| / sqrt(d_i), so the curve has unit speed and its
squared normal curvature has the closed form
2 * sum_i (theta_i^2 - theta_i^4 / d_i) in the block norms theta_i = |b_i|.
This module evaluates the closed form directly and re-derives it from
central differences of the embedding with the fixed step FD_STEP.

The reach is the minimum of two radii: the inverse of the maximal curvature,
and the half-width of the narrowest bottleneck, which is pi/4 because every
bottleneck chord joins orthogonal rank-one tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bw_algebra import Array, SpaceSpec, Tensor, kron_all, veronese_coeffs
from .errors import DomainError
from .manifold import SegrePoint, base_point, embed, normal_split

_MIN_TOTAL_DEGREE = 2
# Step of the central second differences.
FD_STEP = 1e-4
# Largest pairing of a bottleneck witness with the base point or the
# tangent space that bottleneck_check accepts.
_BOTTLENECK_TOL = 1e-10


# ---------------------------------------------------------------------------
# curves through the base point
# ---------------------------------------------------------------------------

def _factor_blocks(space: SpaceSpec, v) -> list:
    """Unit tangent coordinates v, renormalized and split per factor."""
    v = np.asarray(v, dtype=float)
    if v.shape != (space.manifold_dim,):
        raise DomainError("tangent coordinates have the wrong length")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-9:
        raise DomainError("tangent coordinates must be a unit vector within 1e-9")
    return np.split(v / norm, np.cumsum(space.dims)[:-1])


def geodesic_eval(space: SpaceSpec, v, t: float) -> Tensor:
    """Point at parameter t of the curve with unit tangent coordinates v."""
    vecs = []
    for block, d in zip(_factor_blocks(space, v), space.degrees):
        speed = float(np.linalg.norm(block))
        ang = speed * t / math.sqrt(d)
        ell = np.zeros(block.size + 1)
        ell[0] = math.cos(ang)
        if speed > 0:
            ell[1:] = math.sin(ang) * (block / speed)
        vecs.append(veronese_coeffs(ell, d))
    return Tensor(space, kron_all(vecs))


def second_derivative_fd(space: SpaceSpec, v) -> Array:
    """Central second difference of the curve at t = 0."""
    plus = geodesic_eval(space, v, FD_STEP).coeffs
    zero = geodesic_eval(space, v, 0.0).coeffs
    minus = geodesic_eval(space, v, -FD_STEP).coeffs
    return (plus - 2.0 * zero + minus) / (FD_STEP * FD_STEP)


def curvature_closed_form(speeds, degrees) -> float:
    """sqrt(2 * sum(theta_i^2 - theta_i^4 / d_i)) on the speed sphere."""
    speeds = np.asarray(speeds, dtype=float)
    degrees = np.asarray(degrees, dtype=float)
    if speeds.shape != degrees.shape:
        raise DomainError("speeds and degrees must have equal length")
    if not abs(float(np.dot(speeds, speeds)) - 1.0) <= 1e-12:
        raise DomainError("squared speeds must sum to 1 within 1e-12")
    t = speeds * speeds
    return math.sqrt(max(2.0 * float(np.sum(t - t * t / degrees)), 0.0))


# ---------------------------------------------------------------------------
# curvature optimization on the speed sphere
# ---------------------------------------------------------------------------

def optimize_curvature(degrees, minimize: bool) -> tuple[float, Array]:
    """Multi-start projected gradient search of the closed-form curvature.

    Extremizing the curvature is equivalent to extremizing
    q(theta) = sum theta_i^4 / d_i on the sphere (larger q means smaller
    curvature).  Starts include every coordinate axis, the uniform vector,
    and deterministic random points, at least 50 in all, run as one batch
    for at most 400 steps.
    """
    dd = np.asarray(degrees, dtype=float)
    k = dd.shape[0]

    rng = np.random.default_rng(11)
    starts = max(50, k + 1)
    thetas = np.zeros((starts, k))
    thetas[:k] = np.eye(k)
    thetas[k] = 1.0 / math.sqrt(k)
    if starts > k + 1:
        rand = rng.standard_normal((starts - k - 1, k))
        thetas[k + 1:] = rand / np.linalg.norm(rand, axis=1, keepdims=True)

    # For the minimal curvature we maximize q, for the maximal we minimize it.
    direction = 1.0 if minimize else -1.0

    def q(x):
        t = x * x
        return np.sum(t * t / dd, axis=1)

    val = q(thetas)
    step = np.full(starts, 0.25)
    for _ in range(400):
        grad = 4.0 * thetas ** 3 / dd
        grad_t = grad - np.sum(grad * thetas, axis=1, keepdims=True) * thetas
        cand = thetas + direction * step[:, None] * grad_t
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cval = q(cand)
        better = (cval > val) if minimize else (cval < val)
        thetas[better] = cand[better]
        val[better] = cval[better]
        step[better] *= 1.3
        step[~better] *= 0.5
        if np.all(step < 1e-12):
            break

    best_row = int(np.argmax(val)) if minimize else int(np.argmin(val))
    value = math.sqrt(max(2.0 * (1.0 - float(val[best_row])), 0.0))
    return value, np.abs(thetas[best_row])


@dataclass(frozen=True, eq=False)
class ExtremalCurvature:
    """Closed-form extremes with their speed vectors, and the largest and
    smallest curvature over the critical points on the speed sphere."""
    max_value: float
    argmax: Array
    min_value: float
    argmin: Array
    numeric_max: float
    numeric_min: float


def _critical_speeds(degrees) -> Array:
    """One critical point of the curvature per attainable subset degree.

    By Lagrange, 4 theta_i^3 / d_i = 2 lambda theta_i at a critical point
    of q(theta) = sum theta_i^4 / d_i on the speed sphere, so
    theta_i^2 = d_i / D_S on a nonempty support S and 0 off it, with
    D_S = sum_{i in S} d_i.  The critical value depends on D_S alone, so
    one support per attainable D_S stands for all of them.
    """
    reps: dict[int, tuple] = {}
    for i, d in enumerate(degrees):
        for total, support in list(reps.items()):
            reps.setdefault(total + d, support + (i,))
        reps.setdefault(d, (i,))
    dd = np.asarray(degrees, dtype=float)
    speeds = np.zeros((len(reps), dd.size))
    for row, (total, support) in zip(speeds, reps.items()):
        row[list(support)] = np.sqrt(dd[list(support)] / total)
    return speeds


def _critical_curvature_extremes(degrees) -> tuple[float, float]:
    """Largest and smallest curvature over the critical points.  The
    curvature is smooth on the compact speed sphere, so these are its
    global extremes."""
    values = [curvature_closed_form(s, degrees)
              for s in _critical_speeds(degrees)]
    return max(values), min(values)


def extremal_curvature(space: SpaceSpec) -> ExtremalCurvature:
    """Extremal normal curvatures of arc-length curves, closed form.

    The maximum is sqrt(2(d-1)/d) for the total degree d, attained when the
    squared speeds are proportional to the degrees; the minimum is attained
    on the lowest-degree factor alone.  numeric_max and numeric_min
    re-derive both from the closed-form curvature at every critical point
    on the speed sphere (one per attainable subset degree).  The
    multi-start search optimize_curvature is an independent oracle for
    the same values, run by the selftest and the tests.
    """
    if space.total_degree < _MIN_TOTAL_DEGREE:
        raise DomainError("extremal curvature requires total degree >= 2")
    d = space.total_degree
    argmax = np.sqrt(np.asarray(space.degrees, dtype=float) / d)
    max_value = math.sqrt(2.0 * (d - 1) / d)
    d_low = min(space.degrees)
    low_index = space.degrees.index(d_low)
    argmin = np.zeros(space.r)
    argmin[low_index] = 1.0
    min_value = math.sqrt(2.0 * (d_low - 1) / d_low)
    numeric_max, numeric_min = _critical_curvature_extremes(space.degrees)
    return ExtremalCurvature(max_value, argmax, min_value, argmin,
                             numeric_max, numeric_min)


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------

def rho1(space: SpaceSpec) -> float:
    """Inverse of the maximal curvature: sqrt(d / (2(d-1)))."""
    d = space.total_degree
    if d < _MIN_TOTAL_DEGREE:
        raise DomainError("rho1 requires total degree >= 2")
    return math.sqrt(d / (2.0 * (d - 1)))


def rho2(space: SpaceSpec) -> float:
    """Half-width of the narrowest bottleneck: pi/4 for every space."""
    return math.pi / 4.0


def bottleneck_witnesses(space: SpaceSpec, samples: int, seed: int = 5):
    """Random rank-one points whose chord to the base point is normal.

    Witnesses are built by forcing a random set S of factors to be
    orthogonal to the first coordinate axis.  A singleton S whose factor has
    degree one does not produce a witness (the tangent pairing survives in
    that factor), so S is redrawn until its degrees sum to at least two:
    two factors, or one of degree at least two.  The remaining factors are
    arbitrary.
    """
    if space.r == 1 and space.degrees[0] < 2:
        raise DomainError("a single degree-one factor has no bottlenecks")
    rng = np.random.default_rng(seed)
    degrees = np.asarray(space.degrees)
    out = []
    for _ in range(samples):
        mask = np.zeros(space.r, dtype=bool)
        while degrees[mask].sum() < 2:
            mask = rng.random(space.r) < 0.5
        forms = []
        for i, n in enumerate(space.dims):
            v = rng.standard_normal(n + 1)
            if mask[i]:
                v[0] = 0.0
            forms.append(v / np.linalg.norm(v))
        out.append(SegrePoint(space, tuple(forms), 1).canonical())
    return out


def bottleneck_check(space: SpaceSpec, samples: int = 100,
                     seed: int = 5) -> dict:
    """Verify the bottleneck geometry on random witnesses.

    Each witness must be orthogonal to the base point (width pi/2) and its
    chord must be orthogonal to the tangent space.
    """
    split = normal_split(space)
    e = embed(base_point(space))
    worst_base, worst_tangent = 0.0, 0.0
    for witness in bottleneck_witnesses(space, samples, seed):
        f = embed(witness)
        worst_base = max(worst_base, abs(float(np.dot(f.coeffs, e.coeffs))))
        chord = f.coeffs - e.coeffs
        pairing = np.abs(chord[split.tangent_indices])
        if pairing.size:
            worst_tangent = max(worst_tangent, float(np.max(pairing)))
    return {
        "samples": samples,
        "max_base_pairing": worst_base,
        "max_tangent_pairing": worst_tangent,
        "passed": worst_base <= _BOTTLENECK_TOL and
        worst_tangent <= _BOTTLENECK_TOL,
    }


@dataclass(frozen=True)
class ReachReport:
    rho1: float
    rho2: float
    reach: float
    regime: str


def reach(space: SpaceSpec) -> ReachReport:
    """Reach of the rank-one manifold: the smaller of the two radii."""
    r1, r2 = rho1(space), rho2(space)
    if r2 <= r1:
        return ReachReport(r1, r2, r2, "bottleneck-limited")
    return ReachReport(r1, r2, r1, "curvature-limited")
