"""Assembly and sampling of the shape operator at the base point.

For a normal tensor the shape operator is a symmetric matrix on the tangent
space with one block row per factor.  Diagonal block i is built from the
degree-drop-two coordinates of factor i, scaled by sqrt((d_i - 1)/d_i), with
the diagonal entries carrying an extra sqrt(2); off-diagonal block (i, j) is
exactly the grid of cross-factor degree-drop coordinates.  The flat part of
the normal space contributes nothing.

Gaussian normal directions make the blocks independent: when the normal
coordinates are unit-variance on the orthonormal split basis, diagonal block
i is sqrt(2(d_i - 1)/d_i) times a GOE matrix and the off-diagonal blocks are
standard normal.  Published normalizations of this family disagree with each
other, so the samplers take an explicit variance profile; the Monte Carlo
suite adjudicates which profile matches the assembled operator.  Every
profile leaves degree-one diagonal blocks 0, which the direct sampler skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bw_algebra import Array, SpaceSpec, Tensor, _integers
from .errors import DomainError
from .geodesics_reach import second_derivative_fd
from .manifold import normal_split, project_components


@dataclass(frozen=True)
class VarianceProfile:
    """Per-factor entry variances of the block-Gaussian symmetric matrix.

    within_offdiag[k] is the variance of off-diagonal entries inside the
    k-th diagonal block (it doubles as the within-group edge weight of the
    matching combinatorics).  The matrix keeps the GOE shape: the diagonal
    entries of block k have variance 2 within_offdiag[k], and the entries
    of off-diagonal blocks variance one.  Values are converted to exact
    rationals on construction (floats exactly), so the matching sums stay
    exact and float(value) is the value given.
    """

    name: str
    within_offdiag: tuple

    def __post_init__(self):
        try:
            values = tuple(map(Fraction, self.within_offdiag))
        except (ValueError, OverflowError) as exc:  # NaN, infinity
            raise DomainError("variances must be finite numbers") from exc
        if any(v < 0 for v in values):
            raise DomainError("variances must be nonnegative")
        object.__setattr__(self, "within_offdiag", values)
        # Name left out: str hashes, unlike Fraction ones, vary by process.
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self):
        return self._hash


# Profile name -> within-block off-diagonal variance for a factor of degree d.
_WITHIN_VARIANCE = {
    "def-d": lambda d: Fraction(d * (d - 1)),
    "weingarten": lambda d: Fraction(d - 1, d),
    "corollary": lambda d: Fraction(d * (d - 1), 4),
}
PROFILE_NAMES = tuple(_WITHIN_VARIANCE)
# Default profile of the exact formulas: matching, minor and tube sums.
DEFAULT_PROFILE = "def-d"


def variance_profile(name: str, degrees) -> VarianceProfile:
    """Named profile for a degree tuple.

    def-d:      within-block off-diagonal variance d_k (d_k - 1)
    weingarten: (d_k - 1) / d_k, the variance of the assembled operator
    corollary:  d_k (d_k - 1) / 4, the printed GOE normalization

    All three keep the GOE shape (diagonal variance twice the off-diagonal)
    and cross-block variance one.  Equal arguments, with degrees compared
    as ints, return one shared profile (profiles are frozen), so memos
    keyed on it compare by identity and its rationals are built once.
    A degree that is not an integer raises DomainError.
    """
    if name not in _WITHIN_VARIANCE:
        raise DomainError(f"unknown profile {name!r}; choose from {PROFILE_NAMES}")
    return _named_profile(name, _integers("degrees", degrees))


@lru_cache(maxsize=256)
def _named_profile(name: str, degrees: tuple) -> VarianceProfile:
    return VarianceProfile(name, tuple(map(_WITHIN_VARIANCE[name], degrees)))


@dataclass(frozen=True, eq=False)
class WeingartenMatrix:
    """Symmetric matrix of the shape operator, blocked by factor."""

    space: SpaceSpec
    entries: Array

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        n = self.space.manifold_dim
        if m.shape != (n, n):
            raise DomainError(f"entries must be {n}x{n}")
        object.__setattr__(self, "entries", m)

    def to_csv(self, path) -> None:
        np.savetxt(path, self.entries, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------------------
# assembly from normal coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _assembly_plan(space: SpaceSpec):
    """Row/column positions and scales for the split's W and G coordinates."""
    split = normal_split(space)
    offsets = np.concatenate(([0], np.cumsum(space.dims)))
    w_rows, w_cols, w_scales = [], [], []
    for i, (k, l) in split.w_labels:
        d = space.degrees[i]
        scale = math.sqrt((d - 1) / d)
        w_rows.append(offsets[i] + k - 1)
        w_cols.append(offsets[i] + l - 1)
        w_scales.append(scale * (math.sqrt(2.0) if k == l else 1.0))
    g_rows, g_cols = [], []
    for (i, j), (k, l) in split.g_labels:
        g_rows.append(offsets[i] + k - 1)
        g_cols.append(offsets[j] + l - 1)
    return (np.array(w_rows, dtype=np.intp), np.array(w_cols, dtype=np.intp),
            np.array(w_scales), np.array(g_rows, dtype=np.intp),
            np.array(g_cols, dtype=np.intp))


def assemble_batch(space: SpaceSpec, w: Array, g: Array) -> Array:
    """Shape-operator matrices, C-ordered (count, n, n), from batches of W
    and G coordinates: each coordinate's count values are scattered as one
    row into both its entries of an (n n, count) buffer, copied once."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    g = np.atleast_2d(np.asarray(g, dtype=float))
    w_rows, w_cols, w_scales, g_rows, g_cols = _assembly_plan(space)
    n, count = space.manifold_dim, w.shape[0]
    flat = np.zeros((n * n, count))
    for rows, cols, coords in ((w_rows, w_cols, (w * w_scales).T),
                               (g_rows, g_cols, g.T)):
        flat[rows * n + cols] = coords
        flat[cols * n + rows] = coords
    return np.ascontiguousarray(flat.T).reshape(count, n, n)


def assemble_weingarten(f: Tensor) -> WeingartenMatrix:
    """Shape operator of the manifold at the base point, normal direction f.

    Raises DomainError unless f is normal: its base coordinate and every
    tangent coordinate at most 1e-10 max(1, |f|) in absolute value.
    """
    comp = project_components(f, normal_split(f.space))
    bound = 1e-10 * max(1.0, f.norm)
    # Written as not (x <= bound), which fails on NaN as well.
    if not (abs(comp.base) <= bound
            and np.max(np.abs(comp.tangent), initial=0.0) <= bound):
        raise DomainError("the normal direction must be orthogonal to the "
                          "base point and to the tangent space")
    mat = assemble_batch(f.space, comp.w[None, :], comp.g[None, :])[0]
    return WeingartenMatrix(f.space, mat)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def curved_normal_dim(space: SpaceSpec) -> int:
    """Normal coordinates, W and G, that enter an assembled operator."""
    return _assembly_plan(space)[0].size + _assembly_plan(space)[3].size


def assemble_normals(space: SpaceSpec, normals: Array, count: int) -> Array:
    """Operators from count * curved_normal_dim(space) flat normals: count
    rows of W coordinates, then count rows of G."""
    cut = count * _assembly_plan(space)[0].size
    return assemble_batch(space, normals[:cut].reshape(count, -1),
                          normals[cut:].reshape(count, -1))


def gaussian_weingarten_batch(space: SpaceSpec, rng: np.random.Generator,
                              count: int) -> Array:
    """Operators assembled from unit-variance Gaussian normal coordinates.

    Only the curved normal coordinates are drawn; the flat remainder never
    enters the operator.
    """
    return assemble_normals(
        space, rng.standard_normal(count * curved_normal_dim(space)), count)


@lru_cache(maxsize=128)
def _block_sampling_plan(group_sizes: tuple, profile: VarianceProfile):
    """Standard deviation of each upper-triangle entry of positive variance
    (row-major), as a column, those entries' flat positions in the upper
    and mirrored (lower) triangles of an m x m matrix, and the flat
    positions of the entries of variance 0."""
    group = np.repeat(np.arange(len(group_sizes)), group_sizes)
    m = group.size
    off = np.array([float(v) for v in profile.within_offdiag])[group]
    var = np.where(group[:, None] != group, 1.0, off * (1.0 + np.eye(m)))
    upper = np.flatnonzero(np.triu(var) > 0.0)
    rows, cols = np.divmod(upper, m)
    return (np.sqrt(var.ravel()[upper])[:, None], upper, cols * m + rows,
            np.flatnonzero(var == 0.0))


def place_block_entries(group_sizes: tuple, profile: VarianceProfile,
                        draw, out: Array) -> None:
    """Fill out, an (m m, count) buffer, with block matrices: draw(entries)
    fills a new (upper entries of positive variance, count) buffer with
    normals, which are scaled, placed and mirrored; the entries of
    variance 0 are set to 0."""
    std, upper, lower, zero = _block_sampling_plan(group_sizes, profile)
    entries = np.empty((std.shape[0], out.shape[1]))
    draw(entries)
    entries *= std
    out[upper] = entries
    out[lower] = entries
    out[zero] = 0.0


def sample_block_matrix_batch(group_sizes, profile: VarianceProfile,
                              rng: np.random.Generator, count: int) -> Array:
    """Direct sampler of the block-Gaussian symmetric matrix.

    Diagonal block k has off-diagonal variance within_offdiag[k] and
    diagonal variance twice that; off-diagonal blocks have iid entries of
    variance one.  One draw of count normals per upper entry of positive
    variance fills those entries, one row per entry, mirrored into the
    lower ones.  Every profile gives the diagonal blocks of degree-one
    groups variance 0; their entries are 0 and drawn for no normal.  The
    result is a (count, m, m) view of an (m m, count) buffer.
    """
    group_sizes = _integers("group sizes", group_sizes)
    if len(group_sizes) != len(profile.within_offdiag):
        raise DomainError("profile and group sizes must have equal length")
    m = sum(group_sizes)
    mats = np.empty((m * m, count))
    place_block_entries(group_sizes, profile,
                        lambda entries: rng.standard_normal(out=entries), mats)
    return mats.reshape(m, m, count).transpose(2, 0, 1)


def sample_gaussian_weingarten(space: SpaceSpec, seed: int,
                               method: str = "assemble",
                               profile: VarianceProfile | None = None) -> WeingartenMatrix:
    """One random shape operator, deterministic per seed.

    method "assemble" draws Gaussian normal coordinates and assembles the
    operator (the canonical path) and takes no profile.  method "direct"
    uses the block sampler with the given profile; the default profile is
    the one that reproduces the assembled distribution.
    """
    rng = np.random.default_rng(seed)
    if method == "assemble":
        if profile is not None:
            raise DomainError("a variance profile applies to method 'direct' only")
        mat = gaussian_weingarten_batch(space, rng, 1)[0]
    elif method == "direct":
        profile = profile or variance_profile("weingarten", space.degrees)
        mat = sample_block_matrix_batch(space.dims, profile, rng, 1)[0]
    else:
        raise DomainError("method must be 'assemble' or 'direct'")
    return WeingartenMatrix(space, mat)


# ---------------------------------------------------------------------------
# principal minors
# ---------------------------------------------------------------------------

# Highest minor order taken from power sums; see principal_minor_sums_batch.
POWER_SUM_MAX_ORDER = 12


def principal_minor_sums_batch(mats: Array, k: int) -> Array:
    """Batched sum of k x k principal minors of symmetric matrices.

    The sums are the elementary symmetric functions e_k of the eigenvalues.
    Up to order POWER_SUM_MAX_ORDER they come from the power sums
    p_j = tr A^j by Newton's identities, j e_j = sum_i (-1)^(i-1) e_(j-i) p_i,
    where tr A^(2m) = <A^m, A^m> and tr A^(2m+1) = <A^m, A^(m+1)> need
    the powers up to A^ceil(k/2) and no eigen-decomposition.  The alternating
    sum cancels as k grows: on 8,192 GOE matrices of each size up to 24,
    the error per sample against the eigenvalue expansion stays within
    2e-10 of the sample standard deviation for k <= 12, but reaches 3e-9
    at n = k = 14, 4e-8 at n = k = 16 and 4e-3 at n = k = 24.  Higher
    orders therefore expand prod_j (1 + t lambda_j) over the eigenvalues.
    """
    mats = np.asarray(mats, dtype=float)
    count, n = mats.shape[0], mats.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"minor order {k} out of range 0..{n}")
    if k > POWER_SUM_MAX_ORDER:
        lam = np.linalg.eigvalsh(mats)
        coeffs = np.zeros((count, n + 1))
        coeffs[:, 0] = 1.0
        for j in range(n):
            coeffs[:, 1: j + 2] += coeffs[:, 0: j + 1] * lam[:, j: j + 1]
        return coeffs[:, k]
    powers = [np.broadcast_to(np.eye(n), mats.shape), mats]
    while len(powers) <= (k + 1) // 2:
        powers.append(powers[-1] @ mats)
    p = [np.einsum("mab,mab->m", powers[j // 2], powers[j - j // 2])
         for j in range(1, k + 1)]
    e = [np.ones(count)]
    for j in range(1, k + 1):
        e.append(sum((-1) ** i * e[j - 1 - i] * p[i] for i in range(j)) / j)
    return e[k]


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def second_fundamental_form_fd(space: SpaceSpec, v, normal: Tensor) -> float:
    """Pairing of the curve acceleration with a normal direction.

    Takes the central second difference of the embedded curve through the
    base point with unit tangent coordinates v (`second_derivative_fd`) and
    pairs it with the normal tensor.  Equals v^T L v for the assembled
    operator L of that normal direction.
    """
    if normal.space != space:
        raise DomainError("normal tensor lives in a different space")
    if not np.all(np.isfinite(normal.coeffs)):
        raise DomainError("the normal tensor must be finite")
    return float(np.dot(second_derivative_fd(space, v), normal.coeffs))
