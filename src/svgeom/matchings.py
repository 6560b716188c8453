"""Weighted perfect-matching combinatorics and expected block determinants.

A matching problem is a complete graph whose vertices fall into groups, one
group per factor.  Edges inside group k carry the within-group weight of the
variance profile (d_k (d_k - 1) for the default profile), edges across
groups weigh one.  The signed sum of matching weights,
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

from .bw_algebra import SpaceSpec, _integers
from .errors import DomainError, ResourceError
from .weingarten import DEFAULT_PROFILE, VarianceProfile, variance_profile

MATCHING_VERTEX_CAP = 24
BRUTE_FORCE_VERTEX_CAP = 10
MINOR_MODES = ("corrected", "paper")


@dataclass(frozen=True)
class MatchingProblem:
    """Grouped complete graph with a variance/weight profile; a profile of
    None is replaced by DEFAULT_PROFILE on construction."""

    group_sizes: tuple
    degrees: tuple
    profile: VarianceProfile | None = None

    def __post_init__(self):
        sizes = _integers("group sizes", self.group_sizes)
        degrees = _integers("degrees", self.degrees)
        if len(sizes) != len(degrees):
            raise DomainError("group sizes and degrees must have equal length")
        if any(s < 0 for s in sizes):
            raise DomainError("group sizes must be nonnegative")
        if any(d < 1 for d in degrees):
            raise DomainError("degrees must be >= 1")
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "degrees", degrees)
        if self.profile is None:
            object.__setattr__(self, "profile",
                               variance_profile(DEFAULT_PROFILE, degrees))
        elif len(self.profile.within_offdiag) != len(degrees):
            raise DomainError("profile length does not match the degrees")

    @property
    def m(self) -> int:
        return sum(self.group_sizes)


def _canonical(groups) -> tuple:
    """Memo key of a vertex multiset: its nonempty (count, within weight)
    groups, sorted.  A lone vertex has no within edge, so its weight is
    set to 0; groups that agree are interchangeable and share states.
    """
    return tuple(sorted((c, w if c > 1 else 0) for c, w in groups if c))


@lru_cache(maxsize=None)
def _matching_sum(groups: tuple) -> Fraction:
    """Sum over perfect matchings of the product of edge weights.

    Pairs one vertex of the first group within its group (weight w) or
    across groups (weight one).
    One memo, kept for the life of the process and keyed by the canonical
    groups, serves every matching sum, count, signature and minor index.
    """
    if not groups:
        return Fraction(1)
    (c, w), rest = groups[0], groups[1:]
    total = Fraction(0)
    if c > 1 and w:
        total += (c - 1) * w * _matching_sum(_canonical(((c - 2, w),) + rest))
    for h, (n, v) in enumerate(rest):
        nxt = ((c - 1, w),) + rest[:h] + ((n - 1, v),) + rest[h + 1:]
        total += n * _matching_sum(_canonical(nxt))
    return total


def _perfect_matchings(p: MatchingProblem, within) -> Fraction:
    if p.m > MATCHING_VERTEX_CAP:
        raise ResourceError(f"matching sums capped at {MATCHING_VERTEX_CAP} vertices")
    if p.m % 2:
        return Fraction(0)
    return _matching_sum(_canonical(zip(p.group_sizes, within)))


def weighted_matching_sum(p: MatchingProblem) -> Fraction:
    """Exact weighted count of perfect matchings; zero when m is odd."""
    return _perfect_matchings(p, p.profile.within_offdiag)


def matching_count(p: MatchingProblem) -> int:
    """Number of perfect matchings whose weight is nonzero."""
    return int(_perfect_matchings(
        p, [Fraction(1 if w else 0) for w in p.profile.within_offdiag]))


def _edge_weight(p: MatchingProblem):
    """The weight (variance) of the edge between labelled vertices u, v."""
    groups = [g for g, size in enumerate(p.group_sizes) for _ in range(size)]

    def weight(u: int, v: int) -> Fraction:
        if groups[u] == groups[v]:
            return p.profile.within_offdiag[groups[u]]
        return Fraction(1)

    return weight


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
    variance = _edge_weight(p)
    total = Fraction(0)
    for perm in permutations(range(m)):
        # The entries are independent up to symmetry, so the product of
        # entries (i, perm(i)) has nonzero mean only if every entry occurs
        # an even number of times: perm must pair i with perm(i) != i.
        if any(j == i or perm[j] != i for i, j in enumerate(perm)):
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

def _minor_order(i, space: SpaceSpec) -> int:
    """The order i of 2i x 2i minors as an int, if 0 <= 2i <= n; `_integers`
    decides what counts as an integer.  Runs once per order of every tube
    call, so a plain int skips it."""
    if type(i) is not int:
        (i,) = _integers("minor order", (i,))
    if not 0 <= 2 * i <= space.manifold_dim:
        raise DomainError(f"minor order {i} out of range for dimension "
                          f"{space.manifold_dim}")
    return i


def expected_minor_sum_exact(space: SpaceSpec, i: int,
                             profile: VarianceProfile | None = None,
                             mode: str = "corrected") -> Fraction:
    """Expected sum of the 2i x 2i principal minors of the block operator.

    Sums the expected block determinants D(m) over all block signatures
    (m_1, ..., m_r) with m_k <= n_k and total 2i.  The corrected mode
    multiplies each signature by the number of principal subsets realizing
    it, prod_k C(n_k, m_k); the literal mode reproduces the published sum
    without these multiplicities.  Signatures that differ by permuting the
    parts of interchangeable factors share both D(m) and the multiplicity,
    so each orbit is evaluated once and weighted by its size
    (`_signature_orbits`).
    """
    if mode not in MINOR_MODES:
        raise DomainError(f"mode must be one of {MINOR_MODES}")
    i = _minor_order(i, space)
    profile = profile or variance_profile(DEFAULT_PROFILE, space.degrees)
    if len(profile.within_offdiag) != space.r:
        raise DomainError("profile length does not match the degrees")
    total = Fraction(0)
    for m, ways in _signature_orbits(space.dims, profile.within_offdiag, 2 * i):
        if mode == "corrected":
            ways *= math.prod(map(math.comb, space.dims, m))
        total += ways * matching_determinant_exact(
            MatchingProblem(m, space.degrees, profile))
    return total


def expected_minor_sum(space: SpaceSpec, i: int,
                       profile: VarianceProfile | None = None,
                       mode: str = "corrected") -> float:
    return float(expected_minor_sum_exact(space, i, profile, mode))


def _signature_orbits(dims, weights, total):
    """One signature m (0 <= m_k <= n_k, summing to total) per orbit of
    interchangeable factors, with the orbit's size.

    Factors with equal (n_k, w_k) form a class; permuting the parts inside
    a class changes neither D(m) nor prod_k C(n_k, m_k).  The walk keeps
    the parts of each class non-increasing and enters only branches whose
    remaining factors can still hold the rest of the total.  A class of r_c
    factors whose parts repeat with multiplicities mu contributes
    r_c! / prod mu! to the orbit size, built up one factor at a time.
    Yields (m, size), m in factor order.
    """
    order = sorted(range(len(dims)), key=lambda k: (dims[k], weights[k]))
    keys = [(dims[k], weights[k]) for k in order]
    # stop[j]: the position after the last one of j's class; room[j]: the
    # capacity of positions j onwards.
    stop, room = [0] * len(keys), [0] * (len(keys) + 1)
    for j in reversed(range(len(keys))):
        tail = j + 1 < len(keys) and keys[j + 1] == keys[j]
        stop[j] = stop[j + 1] if tail else j + 1
        room[j] = room[j + 1] + keys[j][0]
    m = [0] * len(dims)

    def walk(j, left, ways, rank, tied):
        if j == len(keys):
            yield tuple(m), ways
            return
        same = j > 0 and keys[j] == keys[j - 1]
        rank, prev = (rank + 1, m[order[j - 1]]) if same else (1, keys[j][0])
        # The rest of the class holds at most this part per factor.
        low = max(0, -((room[stop[j]] - left) // (stop[j] - j)))
        for part in range(low, min(prev, left) + 1):
            # Of the class's first `rank` parts, `t` equal this one.
            t = tied + 1 if same and part == prev else 1
            m[order[j]] = part
            yield from walk(j + 1, left - part, ways * rank // t, rank, t)

    yield from walk(0, total, 1, 0, 0)
