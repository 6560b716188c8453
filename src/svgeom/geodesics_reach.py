"""Geodesics through the base point, curvature extremes, and the reach.

Arc-length geodesics through the base point rotate each factor form inside a
coordinate two-plane at angular rate theta_i / sqrt(d_i), with the speed
vector theta constrained to the unit sphere.  The squared normal curvature
of such a curve has the closed form 2 * sum_i (theta_i^2 - theta_i^4 / d_i),
which this module both evaluates directly and re-derives numerically from
central differences of the embedding.

The reach is the minimum of two radii: the inverse of the maximal curvature,
and the half-width of the narrowest bottleneck, which is pi/4 because every
bottleneck chord joins orthogonal rank-one tensors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bw_algebra import Array, SpaceSpec, Tensor, kron_all, veronese_coeffs
from .errors import DomainError
from .manifold import NormalSplit, SegrePoint, base_point, embed, normal_split

_MIN_TOTAL_DEGREE = 2


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeodesicSpec:
    """A curve through the base point, one rotation angle per factor.

    speeds are the initial angle derivatives theta_i (their squares must sum
    to one), accelerations the optional second derivatives.  Each factor
    rotates toward a unit target direction orthogonal to the first
    coordinate; the default target is the second coordinate axis.
    """

    space: SpaceSpec
    speeds: tuple
    accelerations: tuple | None = None
    targets: tuple | None = None

    def __post_init__(self):
        speeds = tuple(float(s) for s in self.speeds)
        if len(speeds) != self.space.r:
            raise DomainError("one speed per factor is required")
        if abs(sum(s * s for s in speeds) - 1.0) > 1e-12:
            raise DomainError("squared speeds must sum to 1 within 1e-12")
        object.__setattr__(self, "speeds", speeds)
        acc = self.accelerations
        acc = (0.0,) * self.space.r if acc is None else tuple(float(a) for a in acc)
        if len(acc) != self.space.r:
            raise DomainError("one acceleration per factor is required")
        object.__setattr__(self, "accelerations", acc)
        if self.targets is not None:
            targets = tuple(np.asarray(t, dtype=float) for t in self.targets)
            for t, n in zip(targets, self.space.dims):
                if t.shape != (n + 1,):
                    raise DomainError("target length does not match factor dims")
                if abs(np.linalg.norm(t) - 1.0) > 1e-10 or abs(t[0]) > 1e-10:
                    raise DomainError("targets must be unit vectors orthogonal "
                                      "to the first coordinate axis")
            object.__setattr__(self, "targets", targets)

    def target(self, i: int) -> Array:
        if self.targets is not None:
            return self.targets[i]
        t = np.zeros(self.space.dims[i] + 1)
        t[1] = 1.0
        return t


def geodesic_eval(g: GeodesicSpec, t: float) -> Tensor:
    """Point of the curve at parameter t (quadratic angle truncation)."""
    space = g.space
    vecs = []
    for i, (n, d) in enumerate(zip(space.dims, space.degrees)):
        ang = (g.speeds[i] * t + 0.5 * g.accelerations[i] * t * t) / math.sqrt(d)
        ell = math.cos(ang) * np.eye(n + 1)[0] + math.sin(ang) * g.target(i)
        vecs.append(veronese_coeffs(ell, d))
    return Tensor(space, kron_all(vecs))


def second_derivative_fd(g: GeodesicSpec, h: float = 1e-4) -> Array:
    """Central second difference of the curve at t = 0."""
    plus = geodesic_eval(g, h).coeffs
    zero = geodesic_eval(g, 0.0).coeffs
    minus = geodesic_eval(g, -h).coeffs
    return (plus - 2.0 * zero + minus) / (h * h)


def curve_component_norms(g: GeodesicSpec, h: float = 1e-4,
                          split: NormalSplit | None = None) -> tuple[float, float]:
    """(tangential, normal) norms of the numeric second derivative."""
    split = split or normal_split(g.space)
    acc = second_derivative_fd(g, h)
    tangential_sq = float(np.dot(acc[split.tangent_indices],
                                 acc[split.tangent_indices]))
    base_sq = float(acc[split.base_index] ** 2)
    normal_sq = float(np.dot(acc, acc)) - tangential_sq - base_sq
    return math.sqrt(tangential_sq), math.sqrt(max(normal_sq, 0.0))


def normal_curvature_numeric(g: GeodesicSpec, h: float = 1e-4,
                             split: NormalSplit | None = None) -> float:
    """Norm of the normal projection of the numeric second derivative."""
    return curve_component_norms(g, h, split)[1]


def curvature_closed_form(speeds, degrees) -> float:
    """sqrt(2 * sum(theta_i^2 - theta_i^4 / d_i)) on the speed sphere."""
    speeds = np.asarray(speeds, dtype=float)
    degrees = np.asarray(degrees, dtype=float)
    if speeds.shape != degrees.shape:
        raise DomainError("speeds and degrees must have equal length")
    if abs(float(np.dot(speeds, speeds)) - 1.0) > 1e-12:
        raise DomainError("squared speeds must sum to 1 within 1e-12")
    t = speeds * speeds
    return math.sqrt(max(2.0 * float(np.sum(t - t * t / degrees)), 0.0))


# ---------------------------------------------------------------------------
# curvature optimization on the speed sphere
# ---------------------------------------------------------------------------

def optimize_curvature(degrees, minimize: bool,
                       support=None) -> tuple[float, Array]:
    """Multi-start projected gradient search of the closed-form curvature.

    Extremizing the curvature is equivalent to extremizing
    q(theta) = sum theta_i^4 / d_i on the sphere (larger q means smaller
    curvature).  Starts include every coordinate axis, the uniform vector,
    and deterministic random points, at least 50 in all, run as one batch
    for at most 400 steps.
    """
    degrees = np.asarray(degrees, dtype=float)
    r = degrees.shape[0]
    idx = np.arange(r) if support is None else np.asarray(support, dtype=int)
    dd = degrees[idx]
    k = idx.shape[0]

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
    theta_full = np.zeros(r)
    theta_full[idx] = np.abs(thetas[best_row])
    value = math.sqrt(max(2.0 * (1.0 - float(val[best_row])), 0.0))
    return value, theta_full


@dataclass(frozen=True, eq=False)
class ExtremalCurvature:
    max_value: float
    argmax: Array
    min_value: float
    argmin: Array
    numeric_max: float
    numeric_min: float


def extremal_curvature(space: SpaceSpec) -> ExtremalCurvature:
    """Extremal normal curvatures of arc-length curves, closed form.

    The maximum is sqrt(2(d-1)/d) for the total degree d, attained when the
    squared speeds are proportional to the degrees; the minimum is attained
    on the lowest-degree factor alone.  A multi-start numeric optimization
    over the speed sphere double-checks both values.
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
    numeric_max, _ = optimize_curvature(space.degrees, minimize=False)
    numeric_min, _ = optimize_curvature(space.degrees, minimize=True)
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

    Witnesses are built by forcing a set S of factors to be orthogonal to
    the first coordinate axis.  A singleton S whose factor has degree one
    does not produce a witness (the tangent pairing survives in that
    factor), so such sets are avoided; any other nonempty S works and the
    remaining factors may be arbitrary.
    """
    if space.r == 1 and space.degrees[0] < 2:
        raise DomainError("a single degree-one factor has no bottlenecks")
    rng = np.random.default_rng(seed)
    eligible_single = [i for i, d in enumerate(space.degrees) if d >= 2]
    out = []
    for _ in range(samples):
        while True:
            mask = rng.random(space.r) < 0.5
            chosen = [i for i in range(space.r) if mask[i]]
            if len(chosen) >= 2:
                break
            if len(chosen) == 1 and chosen[0] in eligible_single:
                break
            if not chosen and eligible_single:
                chosen = [int(rng.choice(eligible_single))]
                break
            if not eligible_single and space.r >= 2:
                chosen = list(rng.choice(space.r, size=2, replace=False))
                break
        forms = []
        for i, n in enumerate(space.dims):
            v = rng.standard_normal(n + 1)
            if i in chosen:
                v[0] = 0.0
            forms.append(v / np.linalg.norm(v))
        out.append(SegrePoint(space, tuple(forms), 1).canonical())
    return out


def bottleneck_check(space: SpaceSpec, samples: int = 100, seed: int = 5,
                     tol: float = 1e-10) -> dict:
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
        "passed": worst_base <= tol and worst_tangent <= tol,
    }


@dataclass(frozen=True)
class ReachReport:
    rho1: float
    rho2: float
    reach: float
    regime: str

    def to_json(self) -> str:
        return json.dumps({"rho1": self.rho1, "rho2": self.rho2,
                           "reach": self.reach, "regime": self.regime})


def reach(space: SpaceSpec) -> ReachReport:
    """Reach of the rank-one manifold: the smaller of the two radii."""
    r1, r2 = rho1(space), rho2(space)
    if r2 <= r1:
        return ReachReport(r1, r2, r2, "bottleneck-limited")
    return ReachReport(r1, r2, r1, "curvature-limited")
