"""The spherical rank-one (Segre-Veronese) manifold as a computational object.

Points are signed tensor products of powers of unit linear forms.  All
pointwise structure is computed at the distinguished base point, the product
of pure powers x_0^{d_i}; every other point is reached by the isometric
action of tuples of orthogonal matrices, so nothing else is ever needed.

The normal space at the base point splits orthogonally into three pieces:
per-factor blocks spanned by monomials that drop the x_0-exponent by two
(`W`), per-pair blocks spanned by monomials that drop it by one in each of
two factors (`G`), and a flat remainder (`P`) that never contributes
curvature and is kept implicit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, cached_property

import numpy as np

from .bw_algebra import (
    Array,
    SpaceSpec,
    Tensor,
    basis_rank,
    exponent_matrix,
    kron_all,
    monomials_to_coeffs,
    multi_indices,
    product_of_linear_powers,
    sqrt_multinomials,
    veronese_coeffs,
)
from .errors import DomainError, ResourceError


# ---------------------------------------------------------------------------
# points and embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SegrePoint:
    """A rank-one point: sign times the product of powers of unit forms."""

    space: SpaceSpec
    forms: tuple
    sign: int = 1

    def __post_init__(self):
        forms = tuple(np.asarray(f, dtype=float) for f in self.forms)
        if len(forms) != self.space.r:
            raise DomainError("one linear form per factor is required")
        for f, n in zip(forms, self.space.dims):
            if f.shape != (n + 1,):
                raise DomainError("form length does not match factor dims")
            if abs(np.linalg.norm(f) - 1.0) > 1e-12:
                raise DomainError("forms must be unit vectors within 1e-12")
        if self.sign not in (-1, 1):
            raise DomainError("sign must be +1 or -1")
        object.__setattr__(self, "forms", forms)

    def canonical(self) -> "SegrePoint":
        """Flip forms so each first nonzero coordinate is >= 0.

        The sign field absorbs the flips, quotienting the finite covering of
        the embedding by per-factor sign changes.
        """
        sign = self.sign
        forms = []
        for f, d in zip(self.forms, self.space.degrees):
            nz = np.nonzero(f)[0]
            if nz.size and f[nz[0]] < 0:
                f = -f
                sign *= (-1) ** d
            forms.append(f)
        return SegrePoint(self.space, tuple(forms), sign)


def veronese_embed(ell, d: int) -> Tensor:
    """The d-th power of a linear form as a single-factor tensor."""
    ell = np.asarray(ell, dtype=float)
    space = SpaceSpec((ell.shape[0] - 1,), (int(d),))
    return Tensor(space, veronese_coeffs(ell, d))


def embed(p: SegrePoint) -> Tensor:
    """Coefficients of the signed product of the factor powers."""
    vecs = [veronese_coeffs(f, d) for f, d in zip(p.forms, p.space.degrees)]
    return Tensor(p.space, p.sign * kron_all(vecs))


def base_point(space: SpaceSpec) -> SegrePoint:
    """The distinguished point: every factor form is the first coordinate."""
    forms = tuple(np.eye(n + 1)[0] for n in space.dims)
    return SegrePoint(space, forms, 1)


def random_segre_point(space: SpaceSpec, rng: np.random.Generator) -> SegrePoint:
    forms = tuple(_unit(rng.standard_normal(n + 1)) for n in space.dims)
    sign = 1 if rng.random() < 0.5 else -1
    return SegrePoint(space, forms, sign).canonical()


def _unit(v: Array) -> Array:
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# normal decomposition at the base point
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormalSplit:
    """Orthonormal bases of the tangent and curved-normal blocks.

    Every listed basis element is a single coefficient slot of the ambient
    space, recorded by its global index.  The flat remainder of the normal
    space is kept implicit; only its dimension and a membership test are
    materialized.
    """

    space: SpaceSpec
    tangent_labels: tuple          # (factor i, direction k), k in 1..n_i
    tangent_indices: Array
    w_labels: tuple                # (factor i, (k, l)) with k <= l
    w_indices: Array
    g_labels: tuple                # ((i, j), (k, l)) with i < j
    g_indices: Array
    p_dim: int
    base_index: int = 0

    @cached_property
    def tangent_basis(self) -> tuple[Tensor, ...]:
        return self._materialize(self.tangent_indices)

    @cached_property
    def w_basis(self) -> tuple[Tensor, ...]:
        return self._materialize(self.w_indices)

    @cached_property
    def g_basis(self) -> tuple[Tensor, ...]:
        return self._materialize(self.g_indices)

    def _materialize(self, indices: Array) -> tuple[Tensor, ...]:
        out = []
        for idx in indices:
            c = np.zeros(self.space.ambient_dim)
            c[idx] = 1.0
            out.append(Tensor(self.space, c))
        return tuple(out)

    def in_flat_complement(self, f: Tensor, tol: float = 1e-10) -> bool:
        """Membership test for the flat normal block."""
        comp = project_components(f, self)
        other = math.sqrt(abs(f.norm ** 2 - comp.p_norm ** 2))
        return other <= tol * max(1.0, f.norm)

    def to_json(self) -> str:
        return json.dumps({
            "space": self.space.to_json_dict(),
            "base_index": int(self.base_index),
            "tangent": [{"factor": i, "direction": k, "index": int(ix)}
                        for (i, k), ix in zip(self.tangent_labels, self.tangent_indices)],
            "w": [{"factor": i, "pair": [k, l], "index": int(ix)}
                  for (i, (k, l)), ix in zip(self.w_labels, self.w_indices)],
            "g": [{"factors": [i, j], "pair": [k, l], "index": int(ix)}
                  for ((i, j), (k, l)), ix in zip(self.g_labels, self.g_indices)],
            "p_dim": self.p_dim,
        })


def _base_ranks(space: SpaceSpec) -> list[int]:
    return [0] * space.r


def _global_index(space: SpaceSpec, ranks) -> int:
    return int(sum(r * s for r, s in zip(ranks, space.strides())))


@lru_cache(maxsize=128)
def normal_split(space: SpaceSpec) -> NormalSplit:
    """Tangent, W and G bases at the base point, plus the flat dimension."""
    tangent_labels, tangent_indices = [], []
    w_labels, w_indices = [], []
    g_labels, g_indices = [], []

    tangent_rank = {}
    for i, (n, d) in enumerate(zip(space.dims, space.degrees)):
        for k in range(1, n + 1):
            alpha = [0] * (n + 1)
            alpha[0], alpha[k] = d - 1, 1
            tangent_rank[(i, k)] = basis_rank(tuple(alpha), n, d)

    for i, (n, d) in enumerate(zip(space.dims, space.degrees)):
        for k in range(1, n + 1):
            ranks = _base_ranks(space)
            ranks[i] = tangent_rank[(i, k)]
            tangent_labels.append((i, k))
            tangent_indices.append(_global_index(space, ranks))
        if d >= 2:
            for k in range(1, n + 1):
                for l in range(k, n + 1):
                    alpha = [0] * (n + 1)
                    alpha[0] = d - 2
                    alpha[k] += 1
                    alpha[l] += 1
                    ranks = _base_ranks(space)
                    ranks[i] = basis_rank(tuple(alpha), n, d)
                    w_labels.append((i, (k, l)))
                    w_indices.append(_global_index(space, ranks))

    for i in range(space.r):
        for j in range(i + 1, space.r):
            for k in range(1, space.dims[i] + 1):
                for l in range(1, space.dims[j] + 1):
                    ranks = _base_ranks(space)
                    ranks[i] = tangent_rank[(i, k)]
                    ranks[j] = tangent_rank[(j, l)]
                    g_labels.append(((i, j), (k, l)))
                    g_indices.append(_global_index(space, ranks))

    p_dim = (space.ambient_dim - 1 - len(tangent_indices)
             - len(w_indices) - len(g_indices))
    return NormalSplit(
        space,
        tuple(tangent_labels), np.array(tangent_indices, dtype=np.intp),
        tuple(w_labels), np.array(w_indices, dtype=np.intp),
        tuple(g_labels), np.array(g_indices, dtype=np.intp),
        p_dim)


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Coordinates of a tensor against the stored split bases."""

    base: float
    tangent: Array
    w: Array
    g: Array
    p_norm: float


def project_components(f: Tensor, split: NormalSplit) -> ComponentDecomposition:
    """Split a tensor into base, tangent, W, G coordinates and a flat norm."""
    if f.space != split.space:
        raise DomainError("tensor and split live in different spaces")
    c = f.coeffs
    base = float(c[split.base_index])
    tangent = c[split.tangent_indices].copy()
    w = c[split.w_indices].copy()
    g = c[split.g_indices].copy()
    explained = base ** 2 + np.dot(tangent, tangent) + np.dot(w, w) + np.dot(g, g)
    p_sq = float(np.dot(c, c)) - explained
    return ComponentDecomposition(base, tangent, w, g, math.sqrt(max(p_sq, 0.0)))


# ---------------------------------------------------------------------------
# tangent pushforward at arbitrary points
# ---------------------------------------------------------------------------

def orthonormal_complement(v: Array) -> Array:
    """Orthonormal basis of the hyperplane orthogonal to a unit vector."""
    k = v.shape[0]
    # Householder reflection sending v to a multiple of e_0; the remaining
    # columns then span the complement of v.
    w = v.copy()
    w[0] += math.copysign(1.0, v[0] if v[0] != 0 else 1.0)
    h = np.eye(k) - 2.0 * np.outer(w, w) / np.dot(w, w)
    return h[:, 1:]


def tangent_frame(p: SegrePoint) -> list[Tensor]:
    """Pushforward of per-factor orthonormal tangent frames at a point.

    Factor i contributes sqrt(d_i) * (ell_i^{d_i - 1} v) tensored with the
    other factor powers, for each unit v orthogonal to ell_i.  The returned
    frame is orthonormal because the product map is a local isometry.
    """
    space = p.space
    factor_vecs = [veronese_coeffs(f, d) for f, d in zip(p.forms, space.degrees)]
    frame = []
    for i, (n, d) in enumerate(zip(space.dims, space.degrees)):
        comp = orthonormal_complement(p.forms[i])
        for k in range(n):
            v = comp[:, k]
            mono = product_of_linear_powers([(p.forms[i], d - 1), (v, 1)], n)
            fac = math.sqrt(d) * monomials_to_coeffs(mono, n, d)
            vecs = list(factor_vecs)
            vecs[i] = fac
            frame.append(Tensor(space, p.sign * kron_all(vecs)))
    return frame


# ---------------------------------------------------------------------------
# best rank-one correlation and distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RankOneResult:
    distance: float
    point: SegrePoint
    correlation: float
    converged: bool


def _poly_value(coeffs: Array, ell: Array, n: int, d: int) -> float:
    powers = np.prod(ell[None, :] ** exponent_matrix(n, d), axis=1)
    return float(np.dot(coeffs * sqrt_multinomials(n, d), powers))


def _poly_gradient(coeffs: Array, ell: Array, n: int, d: int) -> Array:
    mono = coeffs * sqrt_multinomials(n, d)
    expo = exponent_matrix(n, d)
    grad = np.zeros(n + 1)
    for j in range(n + 1):
        mask = expo[:, j] > 0
        if not np.any(mask):
            continue
        shifted = expo[mask].copy()
        shifted[:, j] -= 1
        powers = np.prod(ell[None, :] ** shifted, axis=1)
        grad[j] = np.dot(mono[mask] * expo[mask, j], powers)
    return grad


def _quadratic_form_matrices(coeffs: Array, n: int) -> Array:
    """Symmetric matrices m with value(ell) = ell^T m ell, one per row of
    a (batch, coefficients) array of quadratics."""
    mats = np.zeros((coeffs.shape[0], n + 1, n + 1))
    for rank, alpha in enumerate(multi_indices(n, 2)):
        support = [j for j, a in enumerate(alpha) if a]
        if len(support) == 1:
            j = support[0]
            mats[:, j, j] = coeffs[:, rank]
        else:
            j, k = support
            mats[:, j, k] = mats[:, k, j] = coeffs[:, rank] / math.sqrt(2.0)
    return mats


def _dominant_unit(coeffs: Array, n: int, d: int, start: Array,
                   tol: float, max_iter: int = 120) -> Array:
    """Local maximizer of |p(ell)| over the unit sphere of the factor."""
    if d == 1:
        nrm = np.linalg.norm(coeffs)
        return start if nrm == 0.0 else coeffs / nrm
    if d == 2:
        mat = _quadratic_form_matrices(coeffs[None, :], n)[0]
        vals, vecs = np.linalg.eigh(mat)
        return vecs[:, int(np.argmax(np.abs(vals)))]
    ell = start.copy()
    val = _poly_value(coeffs, ell, n, d) ** 2
    step = 0.5
    for _ in range(max_iter):
        g = 2.0 * _poly_value(coeffs, ell, n, d) * _poly_gradient(coeffs, ell, n, d)
        g_t = g - np.dot(g, ell) * ell
        gn = np.linalg.norm(g_t)
        if gn <= tol:
            break
        improved = False
        for _ in range(40):
            cand = _unit(ell + step * g_t)
            cval = _poly_value(coeffs, cand, n, d) ** 2
            if cval > val:
                ell, val = cand, cval
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return ell


def _contract_except(t: Array, vecs: list[Array], i: int) -> Array:
    letters = "abcdefgh"[: t.ndim]
    subs = [letters] + [letters[j] for j in range(t.ndim) if j != i]
    ops = [t] + [vecs[j] for j in range(t.ndim) if j != i]
    return np.einsum(",".join(subs) + "->" + letters[i], *ops)


def rank_one_distance(f: Tensor, restarts: int = 20, tol: float = 1e-12,
                      max_iter: int = 500) -> RankOneResult:
    """Angular distance from a unit tensor to the rank-one manifold.

    Runs a multi-start alternating maximization of the correlation with a
    signed product of powers: each factor update contracts the tensor
    against the other factors and moves the factor form to a dominant
    direction of the resulting one-factor polynomial.
    """
    space = f.space
    if abs(f.norm - 1.0) > 1e-9:
        raise DomainError("rank_one_distance requires a unit tensor")
    t = f.coeffs.reshape(space.factor_dims)
    best_corr, best_forms, best_conv = -1.0, None, False
    for s in range(restarts):
        rng = np.random.default_rng([7690, s])
        forms = [_unit(rng.standard_normal(n + 1)) for n in space.dims]
        prev, conv = -1.0, False
        corr = 0.0
        for _ in range(max_iter):
            for i, (n, d) in enumerate(zip(space.dims, space.degrees)):
                vecs = [veronese_coeffs(fm, dd)
                        for fm, dd in zip(forms, space.degrees)]
                contracted = _contract_except(t, vecs, i)
                forms[i] = _dominant_unit(contracted, n, d, forms[i], tol)
                corr = abs(_poly_value(contracted, forms[i], n, d))
            if corr - prev <= tol:
                conv = True
                break
            prev = corr
        if corr > best_corr:
            best_corr = corr
            best_forms = [fm.copy() for fm in forms]
            best_conv = conv
    raw = Tensor(space, kron_all([veronese_coeffs(fm, d)
                                  for fm, d in zip(best_forms, space.degrees)]))
    sign = 1 if np.dot(raw.coeffs, f.coeffs) >= 0 else -1
    point = SegrePoint(space, tuple(best_forms), sign).canonical()
    distance = float(np.arccos(np.clip(best_corr, -1.0, 1.0)))
    return RankOneResult(distance, point, best_corr, best_conv)


def max_correlation_batch(space: SpaceSpec, points: Array,
                          restarts: int = 8, max_iter: int = 200) -> Array:
    """Best rank-one correlation for each row of a (batch, ambient) array.

    Quadratic single-factor spaces reduce to symmetric eigenvalues and
    order-two multilinear spaces to singular values; both are evaluated with
    batched linear algebra.  Other spaces fall back to the per-row
    alternating optimizer, which is only practical for small batches.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != space.ambient_dim:
        raise DomainError("batch shape does not match the space")
    if space.r == 1 and space.degrees[0] == 1:
        return np.linalg.norm(points, axis=1)
    if space.r == 1 and space.degrees[0] == 2:
        mats = _quadratic_form_matrices(points, space.dims[0])
        return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)
    if space.r == 2 and space.degrees == (1, 1):
        mats = points.reshape(points.shape[0], *space.factor_dims)
        return np.linalg.svd(mats, compute_uv=False)[:, 0]
    if points.shape[0] > 20000:
        raise ResourceError(
            "no vectorized path for this space; reduce the batch size")
    out = np.empty(points.shape[0])
    for row in range(points.shape[0]):
        res = rank_one_distance(Tensor(space, _unit(points[row])),
                                restarts=restarts, max_iter=max_iter)
        out[row] = res.correlation
    return out
