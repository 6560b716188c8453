"""Tube volumes around the rank-one manifold inside the unit sphere.

The volume of the set of unit tensors within angular distance eps of the
manifold expands as a finite sum of radial integrals weighted by curvature
coefficients (Weyl's tube formula): manifold volume times the volume of the
normal sphere times sum_i a_i * J_i(eps).  Only the J_i depend on eps.  The
coefficients a_i, the expected 2i-minor sums of the shape operator over the
chi-square moments, depend on the space, the variance profile and the minor
mode alone; each order is computed once per such triple and process and
kept in a memo of at most 1024 entries (`_tube_coefficient`).  A repeated
call on the same space, profile and minor mode, at any radius or exponent
convention, evaluates only the radial integrals.

The radial integrals J_i = B_x(p, q) / 2, with x = sin^2 eps, come from an
incomplete beta computed in log space in pure Python (lgamma and a
continued fraction), and every one is cross-checked against adaptive
Simpson quadrature cut around the kernel's peak.

Two printed conventions are kept selectable so they can be adjudicated
against direct Monte Carlo volume estimates: the exponent of the sine in the
radial integral (the corrected kernel sin^(c-1+2i) cos^(n-2i) versus the
literal sin^(c+2i)), and the binomial multiplicities in the expected minor
sums.  Defaults are the corrected exponent and corrected multiplicities with
the default edge-weight profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bw_algebra import SpaceSpec
from .errors import DomainError
from .geodesics_reach import reach
from .matchings import expected_minor_sum_exact
from .weingarten import DEFAULT_PROFILE, VarianceProfile, variance_profile

EXPONENT_CONVENTIONS = ("corrected", "paper")


def sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 0:
        raise DomainError("sphere dimension must be nonnegative")
    half = (k + 1) / 2.0
    return math.exp(math.log(2.0) + half * math.log(math.pi) - math.lgamma(half))


def manifold_volume(space: SpaceSpec) -> float:
    """Volume of the rank-one manifold.

    Each factor contributes d_i^(n_i/2) times the volume of its sphere; the
    product map identifies 2^(r-1) sign patterns, hence the division.
    """
    vol = 1.0
    for n, d in zip(space.dims, space.degrees):
        vol *= d ** (n / 2.0) * sphere_volume(n)
    return vol / 2.0 ** (space.r - 1)


# ---------------------------------------------------------------------------
# radial integrals
# ---------------------------------------------------------------------------

def _adaptive_simpson(fn, a: float, b: float, tol: float = 1e-12) -> float:
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = fn(xl), fn(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth >= 50 or abs(left + right - whole) <= 15.0 * tol:
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
    a = _sine_exponent(i, space, convention)
    b = space.manifold_dim - 2 * i
    _check_index(i, space)
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


def _log_beta_cf(p: float, q: float, x: float, y: float) -> float:
    """log B_x(p, q) for x = 1 - y below the mean p / (p + q).

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
            return p * math.log(x) + q * math.log(y) - math.log(p) + \
                math.log(frac)
    raise ArithmeticError(f"incomplete beta({p}, {q}, {x}) did not converge")


def _log_incomplete_beta(p: float, q: float, x: float, y: float) -> float:
    """log of B_x(p, q) = int_0^x t^(p-1) (1-t)^(q-1) dt, with y = 1 - x.

    Both x and y are passed so that neither is formed by a cancelling
    subtraction.  Above the mean p / (p + q) the symmetry
    B_x(p, q) = B(p, q) - B_y(q, p) keeps the continued fraction in its
    fast range; the subtraction loses no relative accuracy there, since
    the result is at least about half the complete beta.
    """
    if x <= 0.0:
        return -math.inf
    complete = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    if x >= 1.0:
        return complete
    if x <= p / (p + q):
        return _log_beta_cf(p, q, x, y)
    return complete + math.log1p(-math.exp(_log_beta_cf(q, p, y, x)
                                           - complete))


def radial_integral(i: int, space: SpaceSpec, eps: float,
                    convention: str = "corrected") -> float:
    """Closed form of int_0^eps sin^a cos^b through the incomplete beta.

    Cross-checked against adaptive quadrature on every call; a disagreement
    beyond 1e-10 raises, since it would indicate a broken kernel.  The gap
    is absolute, so it only guards terms of order one.
    """
    a = _sine_exponent(i, space, convention)
    b = space.manifold_dim - 2 * i
    _check_index(i, space)
    _check_radius(eps)
    p, q = (a + 1) / 2.0, (b + 1) / 2.0
    value = 0.5 * math.exp(_log_incomplete_beta(
        p, q, math.sin(eps) ** 2, math.cos(eps) ** 2))
    check = radial_integral_quadrature(i, space, eps, convention)
    if abs(value - check) > 1e-10:
        raise ArithmeticError(
            f"radial integral mismatch: beta {value} vs quadrature {check}")
    return value


def _check_index(i: int, space: SpaceSpec) -> None:
    if not 0 <= 2 * i <= space.manifold_dim:
        raise DomainError(f"index {i} out of range for this space")


def _check_radius(eps: float) -> None:
    # Written as not (0 < eps <= pi/2), which fails on NaN as well.
    if not 0.0 < eps <= math.pi / 2.0:
        raise DomainError("radius must lie in (0, pi/2]")


def chi2_moment(i: int, c: int) -> float:
    """i-th moment of a chi-square with c degrees of freedom."""
    if i < 0 or c < 1:
        raise DomainError("invalid moment arguments")
    out = 1
    for j in range(i):
        out *= c + 2 * j
    return float(out)


@lru_cache(maxsize=1024)
def _tube_coefficient(space: SpaceSpec, profile: VarianceProfile,
                      minor_mode: str, i: int) -> float:
    """a_i, the eps-free half of Weyl's formula, kept per order.

    Takes the resolved profile, so that None and the default share one
    entry.  An order that raises (an unknown mode, past the matching cap)
    is not cached.
    """
    ems = expected_minor_sum_exact(space, i, profile, minor_mode)
    return float(ems) / chi2_moment(i, space.normal_dim)


def tube_coefficient(i: int, space: SpaceSpec,
                     profile: VarianceProfile | None = None,
                     minor_mode: str = "corrected") -> float:
    """Normalized curvature coefficient: expected minor sum over the moment."""
    _check_index(i, space)
    profile = profile or variance_profile(DEFAULT_PROFILE, space.degrees)
    return _tube_coefficient(space, profile, minor_mode, i)


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
    """
    c = space.normal_dim
    if c < 1:
        raise DomainError("the manifold must have positive codimension")
    _check_radius(eps)
    if exponent_convention not in EXPONENT_CONVENTIONS:
        raise DomainError(f"unknown convention {exponent_convention!r}")
    profile = profile or variance_profile(DEFAULT_PROFILE, space.degrees)
    prefactor = manifold_volume(space) * sphere_volume(c - 1)
    terms = []
    total = 0.0
    for i in range(space.manifold_dim // 2 + 1):
        a_i = _tube_coefficient(space, profile, minor_mode, i)
        j_i = radial_integral(i, space, eps, exponent_convention)
        contribution = prefactor * a_i * j_i
        total += contribution
        terms.append(TubeTerm(i, a_i, j_i, contribution))
    validity = eps < reach(space).reach
    return TubeReport(space, eps, exponent_convention, minor_mode,
                      profile.name, total, tuple(terms), validity)
