"""Weighted perfect-matching combinatorics and expected block determinants.

A matching problem is a complete graph whose vertices fall into groups, one
group per factor.  Edges inside group k carry the within-group weight of the
variance profile (d_k (d_k - 1) for the default profile), edges across
groups carry the cross weight.  The signed sum of matching weights,
(-1)^(m/2) * sum over perfect matchings of the product of edge weights,
equals the expected determinant of the block-Gaussian symmetric matrix whose
entry variances follow the same profile; a permutation-level brute force
over Wick pairings verifies this identity exactly.

All weights are exact rationals; floats appear only at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .bw_algebra import SpaceSpec
from .errors import DomainError, ResourceError
from .weingarten import VarianceProfile, variance_profile

MATCHING_VERTEX_CAP = 24
BRUTE_FORCE_VERTEX_CAP = 10
MINOR_MODES = ("corrected", "paper")


@dataclass(frozen=True)
class MatchingProblem:
    """Grouped complete graph with a variance/weight profile."""

    group_sizes: tuple
    degrees: tuple
    profile: VarianceProfile | None = None

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.group_sizes)
        degrees = tuple(int(d) for d in self.degrees)
        if len(sizes) != len(degrees):
            raise DomainError("group sizes and degrees must have equal length")
        if any(s < 0 for s in sizes):
            raise DomainError("group sizes must be nonnegative")
        if any(d < 1 for d in degrees):
            raise DomainError("degrees must be >= 1")
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "degrees", degrees)
        if self.profile is not None and \
                len(self.profile.within_offdiag) != len(degrees):
            raise DomainError("profile length does not match the degrees")

    @property
    def m(self) -> int:
        return sum(self.group_sizes)

    def resolved_profile(self) -> VarianceProfile:
        return self.profile or variance_profile("def-d", self.degrees)


def _within_weights(p: MatchingProblem) -> tuple:
    return p.resolved_profile().within_offdiag


@lru_cache(maxsize=None)
def _matching_sum(counts: tuple, within: tuple, cross: Fraction) -> Fraction:
    """Sum over perfect matchings of the product of edge weights.

    Pairs the lowest unmatched vertex first; the state is the tuple of
    unmatched counts per group.  One memo, kept for the life of the
    process, serves every signature, minor index and call with the same
    weights.
    """
    for g, c in enumerate(counts):
        if c:
            break
    else:
        return Fraction(1)
    total = Fraction(0)
    if c >= 2 and within[g]:
        nxt = counts[:g] + (c - 2,) + counts[g + 1:]
        total += (c - 1) * within[g] * _matching_sum(nxt, within, cross)
    for h in range(g + 1, len(counts)):
        if counts[h] and cross:
            nxt = (counts[:g] + (c - 1,) + counts[g + 1: h]
                   + (counts[h] - 1,) + counts[h + 1:])
            total += counts[h] * cross * _matching_sum(nxt, within, cross)
    return total


def weighted_matching_sum(p: MatchingProblem) -> Fraction:
    """Exact weighted count of perfect matchings; zero when m is odd."""
    if p.m > MATCHING_VERTEX_CAP:
        raise ResourceError(f"matching sum capped at {MATCHING_VERTEX_CAP} vertices")
    if p.m % 2:
        return Fraction(0)
    # Fractions on entry, so a float profile never shares memo entries
    # with the equal-valued exact one.
    profile = p.resolved_profile()
    return _matching_sum(p.group_sizes,
                         tuple(map(Fraction, profile.within_offdiag)),
                         Fraction(profile.cross))


def matching_count(p: MatchingProblem) -> int:
    """Number of perfect matchings whose weight is nonzero."""
    if p.m > MATCHING_VERTEX_CAP:
        raise ResourceError(f"matching count capped at {MATCHING_VERTEX_CAP} vertices")
    if p.m % 2:
        return 0
    ind_within = tuple(Fraction(1 if w else 0) for w in _within_weights(p))
    ind_cross = Fraction(1 if p.resolved_profile().cross else 0)
    return int(_matching_sum(p.group_sizes, ind_within, ind_cross))


def naive_matching_sum(p: MatchingProblem) -> Fraction:
    """Literal enumeration over vertex pairings, an oracle for small m."""
    if p.m > BRUTE_FORCE_VERTEX_CAP:
        raise ResourceError(f"naive enumeration capped at {BRUTE_FORCE_VERTEX_CAP}")
    if p.m % 2:
        return Fraction(0)
    groups = [g for g, size in enumerate(p.group_sizes) for _ in range(size)]
    within = _within_weights(p)
    cross = p.resolved_profile().cross

    def weight(u: int, v: int) -> Fraction:
        return within[groups[u]] if groups[u] == groups[v] else cross

    def rec(vertices: tuple) -> Fraction:
        if not vertices:
            return Fraction(1)
        first, rest = vertices[0], vertices[1:]
        total = Fraction(0)
        for pos, other in enumerate(rest):
            remaining = rest[:pos] + rest[pos + 1:]
            total += weight(first, other) * rec(remaining)
        return total

    return rec(tuple(range(p.m)))


def matching_determinant_exact(p: MatchingProblem) -> Fraction:
    """(-1)^(m/2) times the weighted matching sum; zero for odd m."""
    if p.m % 2:
        return Fraction(0)
    return (-1) ** (p.m // 2) * weighted_matching_sum(p)


def matching_determinant(p: MatchingProblem) -> float:
    return float(matching_determinant_exact(p))


# ---------------------------------------------------------------------------
# permutation brute force via Wick pairing
# ---------------------------------------------------------------------------

def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def expected_det_isserlis(p: MatchingProblem) -> Fraction:
    """Expected determinant by summing sign * E prod of entries over all
    permutations, with each expectation evaluated by the Gaussian moment
    rule: an entry appearing an odd number of times kills the term, and
    squares contribute their variance.  Exact, independent of the matching
    recursion.
    """
    m = p.m
    if m > BRUTE_FORCE_VERTEX_CAP:
        raise ResourceError(f"permutation brute force capped at {BRUTE_FORCE_VERTEX_CAP}")
    if m == 0:
        return Fraction(1)
    groups = [g for g, size in enumerate(p.group_sizes) for _ in range(size)]
    within = _within_weights(p)
    cross = p.resolved_profile().cross

    def variance(u: int, v: int) -> Fraction:
        return within[groups[u]] if groups[u] == groups[v] else cross

    total = Fraction(0)
    for perm in permutations(range(m)):
        # The entries are independent up to symmetry, so the product of
        # entries (i, perm(i)) has nonzero mean only if every entry occurs
        # an even number of times: perm must pair i with perm(i) != i.
        ok = True
        for i, j in enumerate(perm):
            if j == i or perm[j] != i:
                ok = False
                break
        if not ok:
            continue
        term = Fraction(_perm_sign(perm))
        for i, j in enumerate(perm):
            if i < j:
                term *= variance(i, j)
        total += term
    return total


# ---------------------------------------------------------------------------
# expected principal-minor sums
# ---------------------------------------------------------------------------

def expected_minor_sum_exact(space: SpaceSpec, i: int,
                             profile: VarianceProfile | None = None,
                             mode: str = "corrected") -> Fraction:
    """Expected sum of the 2i x 2i principal minors of the block operator.

    Sums the expected block determinants over all block signatures
    (m_1, ..., m_r) with m_k <= n_k and total 2i.  The corrected mode
    multiplies each signature by the number of principal subsets realizing
    it, prod_k C(n_k, m_k); the literal mode reproduces the published sum
    without these multiplicities.
    """
    if mode not in MINOR_MODES:
        raise DomainError(f"mode must be one of {MINOR_MODES}")
    n = space.manifold_dim
    if not 0 <= 2 * i <= n:
        raise DomainError(f"minor index {i} out of range for dimension {n}")
    profile = profile or variance_profile("def-d", space.degrees)
    total = Fraction(0)
    for signature in _signatures(space.dims, 2 * i):
        problem = MatchingProblem(signature, space.degrees, profile)
        term = matching_determinant_exact(problem)
        if mode == "corrected":
            mult = math.prod(math.comb(nk, mk)
                             for nk, mk in zip(space.dims, signature))
            term *= mult
        total += term
    return total


def expected_minor_sum(space: SpaceSpec, i: int,
                       profile: VarianceProfile | None = None,
                       mode: str = "corrected") -> float:
    return float(expected_minor_sum_exact(space, i, profile, mode))


def _signatures(dims, total):
    """All tuples (m_1, ..., m_r) with 0 <= m_k <= n_k summing to total."""
    if len(dims) == 1:
        if 0 <= total <= dims[0]:
            yield (total,)
        return
    for first in range(min(dims[0], total) + 1):
        for rest in _signatures(dims[1:], total - first):
            yield (first,) + rest
