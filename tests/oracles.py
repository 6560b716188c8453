"""Brute-force oracles and numeric helpers that only the tests use.

Each oracle enumerates its definition literally, so it shares no code with
the recursion or batched kernel it checks.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from svgeom import DomainError, ResourceError
from svgeom.geodesics_reach import second_derivative_fd
from svgeom.manifold import normal_split
from svgeom.matchings import BRUTE_FORCE_VERTEX_CAP, MatchingProblem, _edge_weight


def naive_matching_sum(p: MatchingProblem) -> Fraction:
    """Literal enumeration over vertex pairings, an oracle for small m."""
    if p.m > BRUTE_FORCE_VERTEX_CAP:
        raise ResourceError(f"naive enumeration capped at {BRUTE_FORCE_VERTEX_CAP}")
    if p.m % 2:
        return Fraction(0)
    weight = _edge_weight(p)

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


def principal_minor_sum(matrix, k: int) -> float:
    """Sum of all k x k principal minors; the empty minor counts as one."""
    mat = np.asarray(matrix, dtype=float)
    n = mat.shape[0]
    if not 0 <= k <= n:
        raise DomainError(f"minor order {k} out of range 0..{n}")
    if k == 0:
        return 1.0
    total = 0.0
    for subset in combinations(range(n), k):
        sel = np.ix_(subset, subset)
        total += float(np.linalg.det(mat[sel]))
    return total


def curve_component_norms(space, v) -> tuple[float, float]:
    """(tangential, normal) norms of the numeric second derivative of the
    curve with tangent v, `second_derivative_fd`, split by `normal_split`."""
    split = normal_split(space)
    acc = second_derivative_fd(space, v)
    tangential_sq = float(np.dot(acc[split.tangent_indices],
                                 acc[split.tangent_indices]))
    base_sq = float(acc[split.base_index] ** 2)
    normal_sq = float(np.dot(acc, acc)) - tangential_sq - base_sq
    return math.sqrt(tangential_sq), math.sqrt(max(normal_sq, 0.0))
