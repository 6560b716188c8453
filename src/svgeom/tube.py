"""Tube volumes around the rank-one manifold inside the unit sphere.

The volume of the set of unit tensors within angular distance eps of the
manifold expands as a finite sum of radial integrals weighted by curvature
coefficients (Weyl's tube formula): manifold volume times the volume of the
normal sphere times sum_i a_i * J_i(eps).  Only the J_i depend on eps.  The
coefficients a_i, the expected 2i-minor sums of the shape operator over the
chi-square moments, depend on the space, the variance profile and the minor
mode alone.  `tube_coefficient` computes one order on every call.
Everything in the formula that does not depend on eps is kept in one plan
per such triple and process (`_tube_plan`, at most 256): the tuple
a_0 .. a_{n // 2}, the log of the prefactor, and the reach radius that sets
`validity`.  A call to `tube_volume` makes one plan lookup, so a repeated
call on the same space, profile and minor mode, at any radius or exponent
convention, evaluates only the radial integrals.  Named profiles are
interned by `variance_profile`, so the lookup usually compares them by
identity.

The radial integrals J_i = B_x(p_i, q_i) / 2, with x = sin^2 eps, are
incomplete betas whose neighbouring orders differ by p -> p - 1,
q -> q + 1.  One radius costs one continued fraction (lgamma and modified
Lentz, in pure Python) for the top order, then a downward recurrence in log
space for the others (`_log_betas`); every J_i is cross-checked against
adaptive Simpson quadrature cut around the kernel's peak.  The same log
values give `log_volume`, which stays finite where the volume underflows,
down to the smallest radius: log x is taken as 2 log sin eps, which keeps
every digit where x itself is subnormal or 0.

Two printed conventions are kept selectable so they can be adjudicated
against direct Monte Carlo volume estimates: the exponent of the sine in the
radial integral (the corrected kernel sin^(c-1+2i) cos^(n-2i) versus the
literal sin^(c+2i)), and the binomial multiplicities in the expected minor
sums.  Defaults are the corrected exponent and corrected multiplicities with
the default edge-weight profile.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bw_algebra import SpaceSpec, _integers
from .errors import DomainError
from .geodesics_reach import reach
from .matchings import _minor_order, expected_minor_sum_exact
from .weingarten import DEFAULT_PROFILE, VarianceProfile, variance_profile

EXPONENT_CONVENTIONS = ("corrected", "paper")


def _log_sphere_volume(k: int) -> float:
    """log of `sphere_volume(k)`, finite where the volume underflows."""
    if type(k) is not int:
        (k,) = _integers("sphere dimension", (k,))
    if k < 0:
        raise DomainError("sphere dimension must be nonnegative")
    half = (k + 1) / 2.0
    return math.log(2.0) + half * math.log(math.pi) - math.lgamma(half)


def sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    return math.exp(_log_sphere_volume(k))


def _log_manifold_volume(space: SpaceSpec) -> float:
    """log of `manifold_volume`, finite where the volume underflows."""
    return (sum(n / 2.0 * math.log(d) + _log_sphere_volume(n)
                for n, d in zip(space.dims, space.degrees))
            - (space.r - 1) * math.log(2.0))


def manifold_volume(space: SpaceSpec) -> float:
    """Volume of the rank-one manifold.

    Each factor contributes d_i^(n_i/2) times the volume of its sphere; the
    product map identifies 2^(r-1) sign patterns, hence the division.
    """
    return math.exp(_log_manifold_volume(space))


# ---------------------------------------------------------------------------
# radial integrals
# ---------------------------------------------------------------------------

def _adaptive_simpson(fn, a: float, b: float) -> float:
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = fn(xl), fn(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth >= 50 or abs(left + right - whole) <= 15.0 * 1e-12:
            return left + right + (left + right - whole) / 15.0
        return (rec(x0, xm, f0, fl, f1, left, depth + 1)
                + rec(xm, x2, f1, fr, f2, right, depth + 1))

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    return rec(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), 0)


def _sine_exponent(i: int, space: SpaceSpec, convention: str) -> int:
    c = space.normal_dim
    if convention == "corrected":
        return c - 1 + 2 * i
    if convention == "paper":
        return c + 2 * i
    raise DomainError(f"unknown convention {convention!r}")


def radial_integral_quadrature(i: int, space: SpaceSpec, eps: float,
                               convention: str = "corrected") -> float:
    """Adaptive Simpson evaluation of the radial kernel integral."""
    i = _minor_order(i, space)
    a = _sine_exponent(i, space, convention)
    b = space.manifold_dim - 2 * i
    _check_radius(eps)

    def kernel(phi):
        return math.sin(phi) ** a * math.cos(phi) ** b

    # A panel whose samples all miss the kernel's bump can pass its own
    # error test, so the bump gets panels of its own.  The kernel is
    # log-concave with its mode at atan(sqrt(a/b)) and, by Laplace's method,
    # width 1/sqrt(2(a+b)); cut at the mode and three widths either side.
    peak = math.atan2(math.sqrt(a), math.sqrt(b))
    spread = 3.0 / math.sqrt(2.0 * (a + b))
    edges = [0.0, *(x for x in (peak - spread, peak, peak + spread)
                    if 0.0 < x < eps), eps]
    return sum(_adaptive_simpson(kernel, lo, hi)
               for lo, hi in zip(edges, edges[1:]))


def _log_beta_cf(p: float, q: float, x: float, log_x: float,
                 log_y: float) -> float:
    """log B_x(p, q) for x below the mean p / (p + q), given log x and
    log y = log(1 - x).

    B_x(p, q) = x^p y^q / p * K, with K the continued fraction of the
    regularized incomplete beta, evaluated by the modified Lentz method.
    """
    tiny = 1e-300

    def guard(v):
        return v if abs(v) >= tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (p + q) * x / (p + 1.0))
    frac = d
    for m in range(1, 10_000):
        for num in (m * (q - m) * x / ((p + 2 * m - 1) * (p + 2 * m)),
                    -(p + m) * (p + q + m) * x
                    / ((p + 2 * m) * (p + 2 * m + 1))):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            frac *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            return p * log_x + q * log_y - math.log(p) + math.log(frac)
    raise ArithmeticError(f"incomplete beta({p}, {q}, {x}) did not converge")


def _log_incomplete_beta(p: float, q: float, x: float, y: float,
                         log_x: float, log_y: float) -> float:
    """log of B_x(p, q) = int_0^x t^(p-1) (1-t)^(q-1) dt, with y = 1 - x.

    Both x and y are passed so that neither is formed by a cancelling
    subtraction, and their logs so that a subnormal or zero x (a tiny
    radius) still has an exact log.  Above the mean p / (p + q) the
    symmetry B_x(p, q) = B(p, q) - B_y(q, p) keeps the continued fraction
    in its fast range; the subtraction loses no relative accuracy there, since
    the result is at least about half the complete beta.
    """
    complete = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    if x >= 1.0:
        return complete
    if x <= p / (p + q):
        return _log_beta_cf(p, q, x, log_x, log_y)
    tail = _log_beta_cf(q, p, y, log_y, log_x)
    return complete + math.log1p(-math.exp(tail - complete))


def _log_betas(space: SpaceSpec, eps: float, convention: str) -> list:
    """log B_x(p_i, q_i) for i = 0 .. n // 2, with x = sin^2 eps, so that
    J_i = B_x(p_i, q_i) / 2.

    Order i has p_i = p_0 + i and q_i = q_0 - i.  The top order comes from
    one continued fraction; each lower one from integration by parts of
    t^p (1 - t)^q, B_x(p, q + 1) = (q B_x(p + 1, q) + x^p y^q) / p, which
    adds two positive terms and so cannot cancel (the upward direction
    subtracts them).
    """
    if space.normal_dim < 1:
        raise DomainError("the manifold must have positive codimension")
    _check_radius(eps)
    top = space.manifold_dim // 2
    p = (_sine_exponent(top, space, convention) + 1) / 2.0
    q = (space.manifold_dim - 2 * top + 1) / 2.0
    x, y = math.sin(eps) ** 2, math.cos(eps) ** 2
    log_x, log_y = 2.0 * math.log(math.sin(eps)), math.log(y)
    log_b = _log_incomplete_beta(p, q, x, y, log_x, log_y)
    logs = [log_b]
    for _ in range(top):
        p -= 1.0
        u, v = math.log(q) + log_b, p * log_x + q * log_y
        hi, lo = (u, v) if u >= v else (v, u)
        log_b = hi + math.log1p(math.exp(lo - hi)) - math.log(p)
        q += 1.0
        logs.append(log_b)
    return logs[::-1]


def radial_integrals(space: SpaceSpec, eps: float,
                     convention: str = "corrected") -> tuple:
    """J_0 .. J_{n // 2} at one radius, J_i = int_0^eps sin^a cos^b with
    a the sine exponent of order i and b = n - 2i, from the incomplete beta.

    One continued fraction gives the top order, and a downward recurrence
    in log space the others (`_log_betas`).  Not cross-checked; see
    `radial_integral`.
    """
    return tuple(0.5 * math.exp(b) for b in _log_betas(space, eps, convention))


def _cross_checked(value: float, i: int, space: SpaceSpec, eps: float,
                   convention: str) -> float:
    check = radial_integral_quadrature(i, space, eps, convention)
    if abs(value - check) > 1e-10:
        raise ArithmeticError(
            f"radial integral mismatch: beta {value} vs quadrature {check}")
    return value


def radial_integral(i: int, space: SpaceSpec, eps: float,
                    convention: str = "corrected") -> float:
    """J_i = int_0^eps sin^a cos^b, entry i of `radial_integrals`: one
    continued fraction at the top order, then the downward recurrence.

    Cross-checked against adaptive quadrature on every call; a disagreement
    beyond 1e-10 raises, since it would indicate a broken kernel.  The gap
    is absolute, so it only guards terms of order one.
    """
    i = _minor_order(i, space)
    return _cross_checked(radial_integrals(space, eps, convention)[i],
                          i, space, eps, convention)


def _check_radius(eps: float) -> None:
    # A bool is an int to Python, and numpy's bool is no number at all.
    # Plain floats, the common case, skip the slower ABC check.
    if type(eps) is not float and (isinstance(eps, bool)
                                   or not isinstance(eps, numbers.Real)):
        raise DomainError(f"radius must be a real number, not {eps!r}")
    # Written as not (0 < eps <= pi/2), which fails on NaN as well.
    if not 0.0 < eps <= math.pi / 2.0:
        raise DomainError("radius must lie in (0, pi/2]")


def chi2_moment(i: int, c: int) -> float:
    """i-th moment of a chi-square with c degrees of freedom."""
    if type(i) is not int or type(c) is not int:
        i, c = _integers("moment arguments", (i, c))
    if i < 0 or c < 1:
        raise DomainError("invalid moment arguments")
    return float(math.prod(range(c, c + 2 * i, 2)))


def tube_coefficient(i: int, space: SpaceSpec,
                     profile: VarianceProfile | None = None,
                     minor_mode: str = "corrected") -> float:
    """a_i, the eps-free half of Weyl's formula: the expected 2i-minor sum
    over the i-th chi-square moment.  Computed on every call."""
    i = _minor_order(i, space)
    ems = expected_minor_sum_exact(space, i, profile, minor_mode)
    return float(ems) / chi2_moment(i, space.normal_dim)


class _TubePlan(NamedTuple):
    coefficients: tuple   # a_0 .. a_{n // 2}
    log_prefactor: float  # log(vol M * vol S^(c - 1))
    reach: float


@lru_cache(maxsize=256)
def _tube_plan(space: SpaceSpec, profile: VarianceProfile,
               minor_mode: str) -> _TubePlan:
    """Everything in Weyl's formula that does not depend on eps, for one
    resolved profile; keyed without the exponent convention, which only
    the radial integrals read.

    The only memo of the coefficients.  A plan that raises (an unknown
    mode, an order past the matching cap) is not cached, and none of its
    orders is kept.
    """
    coefficients = tuple(tube_coefficient(i, space, profile, minor_mode)
                         for i in range(space.manifold_dim // 2 + 1))
    log_prefactor = (_log_manifold_volume(space)
                     + _log_sphere_volume(space.normal_dim - 1))
    return _TubePlan(coefficients, log_prefactor, reach(space).reach)


# ---------------------------------------------------------------------------
# assembled tube volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TubeTerm:
    i: int
    a: float
    j: float
    contribution: float


@dataclass(frozen=True, eq=False)
class TubeReport:
    space: SpaceSpec
    epsilon: float
    exponent_convention: str
    minor_mode: str
    profile_name: str
    volume: float
    log_volume: float | None
    terms: tuple
    validity: bool

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_json_dict(),
            "epsilon": self.epsilon,
            "conventions": {
                "exponent": self.exponent_convention,
                "minor_mode": self.minor_mode,
                "profile": self.profile_name,
            },
            "volume": self.volume,
            "log_volume": self.log_volume,
            "terms": [{"i": t.i, "a_i": t.a, "J_i": t.j,
                       "contribution": t.contribution} for t in self.terms],
            "validity": self.validity,
        }

    def terms_csv(self, path) -> None:
        rows = np.array([[t.i, t.a, t.j, t.contribution] for t in self.terms])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",",
                   header="i,a_i,J_i,contribution", comments="")


def tube_volume(space: SpaceSpec, eps: float,
                exponent_convention: str = "corrected",
                minor_mode: str = "corrected",
                profile: VarianceProfile | None = None) -> TubeReport:
    """Volume of the angular eps-neighborhood of the rank-one manifold.

    Valid below the reach; larger radii are still evaluated but flagged.
    `log_volume` sums the same terms in log space, so it stays finite where
    `volume` underflows; it is None where the sum is not positive.
    """
    log_betas = _log_betas(space, eps, exponent_convention)
    profile = profile or variance_profile(DEFAULT_PROFILE, space.degrees)
    plan = _tube_plan(space, profile, minor_mode)
    prefactor = math.exp(plan.log_prefactor)
    terms = []
    total = 0.0
    for i, (a_i, log_b) in enumerate(zip(plan.coefficients, log_betas)):
        j_i = _cross_checked(0.5 * math.exp(log_b), i, space, eps,
                             exponent_convention)
        contribution = prefactor * a_i * j_i
        total += contribution
        terms.append(TubeTerm(i, a_i, j_i, contribution))
    # sum_i a_i B_i with the largest B_i factored out, J_i = B_i / 2.
    shift = max(log_betas)
    signed = math.fsum([t.a * math.exp(log_b - shift)
                        for t, log_b in zip(terms, log_betas)])
    log_volume = (plan.log_prefactor - math.log(2.0) + shift
                  + math.log(signed) if signed > 0.0 else None)
    return TubeReport(space, eps, exponent_convention, minor_mode,
                      profile.name, total, log_volume, tuple(terms),
                      eps < plan.reach)
