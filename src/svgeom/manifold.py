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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .bw_algebra import (
    Array,
    SpaceSpec,
    Tensor,
    basis_rank,
    kron_all,
    multi_indices,
    multiply_table,
    sqrt_multinomials,
    veronese_coeffs,
)
from .errors import DomainError


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
            if not abs(np.linalg.norm(f) - 1.0) <= 1e-12:
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

    def in_flat_complement(self, f: Tensor) -> bool:
        """Membership test for the flat normal block: the norm of f outside
        it is at most 1e-10 max(1, |f|)."""
        comp = project_components(f, self)
        other = math.sqrt(abs(f.norm ** 2 - comp.p_norm ** 2))
        return other <= 1e-10 * max(1.0, f.norm)


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
            ranks = [0] * space.r
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
                    ranks = [0] * space.r
                    ranks[i] = basis_rank(tuple(alpha), n, d)
                    w_labels.append((i, (k, l)))
                    w_indices.append(_global_index(space, ranks))

    for i in range(space.r):
        for j in range(i + 1, space.r):
            for k in range(1, space.dims[i] + 1):
                for l in range(1, space.dims[j] + 1):
                    ranks = [0] * space.r
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
    if not np.all(np.isfinite(c)):
        raise DomainError("the tensor must be finite")
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
        lowered = math.sqrt(d) * veronese_coeffs(p.forms[i], d - 1)
        for v in orthonormal_complement(p.forms[i]).T:
            vecs = list(factor_vecs)
            vecs[i] = np.tensordot(v, multiply_table(n, d), 1) @ lowered
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


def _quadratic_form_entries(columns: Array, n: int) -> dict:
    """Upper-triangle entries (j, k) -> values of the symmetric matrices m
    with value(ell) = ell^T m ell, one value per column of a (coefficients,
    batch) array of quadratics."""
    entries = {}
    for rank, alpha in enumerate(multi_indices(n, 2)):
        j, k = (i for i, a in enumerate(alpha) for _ in range(a))
        entries[j, k] = columns[rank] / (1.0 if j == k else math.sqrt(2.0))
    return entries


def _quadratic_form_matrices(coeffs: Array, n: int) -> Array:
    """Symmetric matrices m with value(ell) = ell^T m ell, one per row of
    a (batch, coefficients) array of quadratics."""
    return _symmetric_matrices(_quadratic_form_entries(coeffs.T, n), n + 1)


def _gram_entries(space: SpaceSpec, rows: Array) -> dict:
    """Upper-triangle entries (p, q) -> values of the Gram matrix x x^T of
    each row x of a two-factor degree-one space, taken as a matrix with the
    smaller factor first."""
    x = np.ascontiguousarray(rows.T).reshape(*space.factor_dims, -1)
    if x.shape[0] > x.shape[1]:
        x = x.swapaxes(0, 1)
    n = x.shape[0]
    return {(p, q): np.einsum("kb,kb->b", x[p], x[q])
            for p in range(n) for q in range(p, n)}


def _symmetric_matrices(a: dict, n: int) -> Array:
    """The (batch, n, n) matrices of upper-triangle entries a[p, q], p <= q,
    each an array over the batch."""
    mats = np.empty(a[0, 0].shape + (n, n))
    for (p, q), entry in a.items():
        mats[:, p, q] = mats[:, q, p] = entry
    return mats


def _is_positive_definite(a: dict, n: int) -> Array:
    """Whether each of a batch of symmetric n x n matrices, stored
    struct-of-arrays as upper-triangle entries a[p, q], p <= q, each an
    array over the batch, is positive definite.

    Gaussian elimination without pivoting: the k-th pivot is the ratio of
    the k-th and (k-1)-th leading principal minors, so by Sylvester's
    criterion a matrix is positive definite exactly when every pivot is
    positive.  A matrix stops counting at its first pivot <= 0, after which
    its entries are updated with pivot 1, so nothing divides by zero.
    """
    a = dict(a)  # entries are rebound, never written: the caller's stay
    definite = np.ones(a[0, 0].shape, dtype=bool)
    for k in range(n):
        definite &= a[k, k] > 0.0
        inverse = 1.0 / np.where(definite, a[k, k], 1.0)
        for i in range(k + 1, n):
            ratio = a[k, i] * inverse
            for j in range(i, n):
                a[i, j] = a[i, j] - ratio * a[k, j]
    return definite


def _grid_angles(d: int) -> Array:
    """The 2d + 1 angles k pi / (d + 1) at which binary d-forms are sampled
    on the circle."""
    return math.pi * np.arange(2 * d + 1) / (d + 1)


def _turned_frame(samples: Array, d: int, j: int) -> tuple[Array, Array]:
    """Turn each binary d-form g, given by its values at the
    `_grid_angles`, by the grid angle phi = k pi / (d + 1), k <= d, whose
    turned form has the largest |coefficient j| in the orthonormal basis.
    Returns phi and the monomial coefficients a of the turned form,
    g(theta + phi) = sum_i a_i cos(theta)^(d-i) sin(theta)^i, one row per
    form.

    The turned form's values at the first d + 1 grid angles are the
    samples k to k + d, so every turn is a solve with the same matrix.
    """
    angles = _grid_angles(d)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    frames = (samples[:, np.add.outer(np.arange(d + 1), np.arange(d + 1))]
              @ np.linalg.inv(veronese_coeffs(circle[:d + 1], d)).T)
    k = np.argmax(np.abs(frames[:, :, j]), axis=1)
    turned = frames[np.arange(samples.shape[0]), k]
    return angles[k], turned * sqrt_multinomials(1, d)


def _real_parts_of_roots(q: Array) -> Array:
    """Real parts of the roots of each row's polynomial sum_i q_i t^i, its
    leading coefficient last, from the eigenvalues of its companion matrix.
    A zero leading coefficient is taken as one."""
    d = q.shape[1] - 1
    comp = np.broadcast_to(np.eye(d, k=-1), (q.shape[0], d, d)).copy()
    comp[:, :, -1] = -q[:, :-1] / np.where(q[:, -1:] == 0.0, 1.0, q[:, -1:])
    return np.linalg.eigvals(comp).real


def _maximize_on_circle(c: Array, d: int, ell: Array, u: Array) -> Array:
    """Global maximizer of |p(x)| = |<c, veronese(x, d)>| on each great
    circle x = cos(theta) ell + sin(theta) u, for orthonormal ell and u.

    Turned by the grid angle phi = k pi / (d + 1) with the largest
    |p'(phi + pi/2)|, the critical points are the real roots of
    p'(theta + phi) / cos(theta)^d, a degree-d polynomial in tan(theta)
    with that leading coefficient; equispaced samples bound the root mean
    square of p', so its companion matrix is well conditioned.  Every
    root's real part is a candidate, as a nearly double root may split.
    """
    rows = np.arange(c.shape[0])
    angles = _grid_angles(d)
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    circle = cos * ell[:, None, :] + sin * u[:, None, :]
    on_circle = np.einsum("mka,ma->mk", veronese_coeffs(circle, d), c)
    phi, a = _turned_frame(on_circle, d, d - 1)
    a_pad = np.pad(a, ((0, 0), (1, 1)))
    q = np.arange(1, d + 2) * a_pad[:, 2:] - np.arange(d + 1, 0, -1) * a_pad[:, :-2]
    t = _real_parts_of_roots(q)
    values = polyval(t.T, a.T, tensor=False).T / (1.0 + t * t) ** (d / 2)
    theta = phi + np.arctan(t[rows, np.argmax(np.abs(values), axis=1)])
    return np.cos(theta)[:, None] * ell + np.sin(theta)[:, None] * u


def _maximize_factor(c: Array, n: int, d: int, ell: Array) -> Array:
    """Unit forms raising |<c, veronese(ell, d)>|, one per row of c.

    Degrees one and two get a global maximizer.  Higher degrees take the
    SS-HOPM step (Kolda and Mayo, SIMAX 32, 2011) whose shift maximizes |p|
    on the great circle through ell and its gradient, which holds every
    shifted step, so |p| never decreases; for binary forms that circle is
    the whole circle, and the step is a global maximizer.
    """
    if d == 1:
        norm = np.linalg.norm(c, axis=1, keepdims=True)
        return np.divide(c, norm, out=ell.copy(), where=norm > 0.0)
    if d == 2:
        vals, vecs = np.linalg.eigh(_quadratic_form_matrices(c, n))
        return vecs[np.arange(c.shape[0]), :, np.argmax(np.abs(vals), axis=1)]
    grad = d * np.einsum("jmb,mb->mj", c @ multiply_table(n, d),
                         veronese_coeffs(ell, d - 1))
    frame = np.linalg.qr(np.stack([ell, grad], axis=-1))[0]  # columns +-ell, u
    return _maximize_on_circle(c, d, ell, frame[:, :, 1])


@lru_cache(maxsize=128)
def _restart_forms(dims: tuple, restarts: int) -> tuple[Array, ...]:
    """Start forms of `_best_rank_one`, one read-only (restarts, n + 1)
    array per factor: restart s draws its unit forms, factor by factor,
    from default_rng([7690, s])."""
    rngs = [np.random.default_rng([7690, s]) for s in range(restarts)]
    starts = [[_unit(g.standard_normal(n + 1)) for n in dims] for g in rngs]
    forms = tuple(np.array(f) for f in zip(*starts))
    for f in forms:
        f.setflags(write=False)
    return forms


def _best_rank_one(space: SpaceSpec, points: Array, restarts: int,
                   max_iter: int) -> tuple[Array, list, Array]:
    """Alternating maximization of |<t, x>| over rank-one x (HOPM: De
    Lathauwer, De Moor and Vandewalle, SIMAX 21, 2000) for all rows t of
    points and all restarts at once.  A pair stops, converged, once a sweep
    raises it by at most 1e-12 times the row norm.  Returns the best
    restart's correlation, forms (one array per factor) and flag per row.
    """
    rows, size = points.shape[0], points.shape[0] * restarts
    letters = "abcdefghijklmnopqrstuvwxyz"[:space.r]
    specs = [",".join(["Z" + letters] + ["Z" + o for o in letters if o != x])
             + "->Z" + x for x in letters]
    forms = [np.tile(f, (rows, 1))
             for f in _restart_forms(space.dims, restarts)]
    owner = np.repeat(np.arange(rows), restarts)
    t = points.reshape(rows, *space.factor_dims)[owner]
    limit = 1e-12 * np.linalg.norm(points, axis=1)[owner]
    corr, converged = np.full(size, -1.0), np.zeros(size, dtype=bool)
    active = np.arange(size)
    for _ in range(max_iter):
        if not active.size:
            break
        vecs = [veronese_coeffs(f[active], d) for f, d in zip(forms, space.degrees)]
        for i, (n, d) in enumerate(zip(space.dims, space.degrees)):
            c = np.einsum(specs[i], t[active],
                          *(v for j, v in enumerate(vecs) if j != i))
            forms[i][active] = _maximize_factor(c, n, d, forms[i][active])
            vecs[i] = veronese_coeffs(forms[i][active], d)
        value = np.abs(np.einsum("ma,ma->m", c, vecs[-1]))
        done = value - corr[active] <= limit[active]
        converged[active[done]] = True
        corr[active] = value
        active = active[~done]
    best = np.argmax(corr.reshape(rows, restarts), axis=1) + restarts * np.arange(rows)
    return corr[best], [f[best] for f in forms], converged[best]


def rank_one_distance(f: Tensor) -> RankOneResult:
    """Angular distance from a unit tensor to the rank-one manifold.

    Runs the batched alternating maximization `_best_rank_one` on one row
    with 20 restarts and at most DISTANCE_SWEEPS sweeps, on every space;
    `converged` is the flag of the best of its restarts.
    """
    space = f.space
    if not abs(f.norm - 1.0) <= 1e-9:
        raise DomainError("rank_one_distance requires a unit tensor")
    corr, forms, converged = _best_rank_one(space, f.coeffs[None, :], 20,
                                            DISTANCE_SWEEPS)
    point = SegrePoint(space, tuple(fm[0] for fm in forms))
    sign = 1 if np.dot(embed(point).coeffs, f.coeffs) >= 0 else -1
    point = SegrePoint(space, point.forms, sign).canonical()
    corr = float(corr[0])
    return RankOneResult(math.acos(min(corr, 1.0)), point, corr, bool(converged[0]))


def _circle_maximizer(c: Array, d: int) -> Array:
    """Global maximizer x of |<c, veronese(x, d)>| on the unit circle, per
    row of a (batch, d + 1) array of binary d-forms."""
    ell = np.broadcast_to([1.0, 0.0], c.shape[:1] + (2,))
    u = np.broadcast_to([0.0, 1.0], c.shape[:1] + (2,))
    return _maximize_on_circle(c, d, ell, u)


def _binary_times_linear(t: Array, d: int) -> Array:
    """max <t, veronese(x, d) (x) y> over unit x in R^2 and unit y, for
    each (d + 1, m + 1) matrix t of a batch.

    For fixed x the best y gives ||t^T veronese(x, d)||, whose square is
    the nonnegative binary 2d-form g = sum_b p_b^2 of the columns p_b of t.
    In monomial coordinates m = t * sqrt_multinomials(1, d), the
    coefficient of x_0^(2d-k) x_1^k in g sums the antidiagonal a + c = k
    of m m^T.  The norm is then taken at the maximizer of g, the value a
    rank-one point attains.
    """
    mono = t * sqrt_multinomials(1, d)[:, None]
    gram = np.einsum("mab,mcb->mac", mono, mono)
    g = np.zeros((t.shape[0], 2 * d + 1))
    for a in range(d + 1):
        g[:, a:a + d + 1] += gram[:, a]
    x = _circle_maximizer(g / sqrt_multinomials(1, 2 * d), 2 * d)
    return np.linalg.norm(np.einsum("mab,ma->mb", t, veronese_coeffs(x, d)),
                          axis=1)


def _pencil_top_singular_value(t: Array) -> Array:
    """max <t, x (x) y (x) z> over unit x, y in R^2 and unit z, for each
    (2, 2, m + 1) array t of a batch: the maximum over theta of the top
    singular value s_1 of the 2 x (m + 1) pencil
    M(theta) = cos(theta) t[0] + sin(theta) t[1].

    The Gram entries p = ||m_0||^2, q = ||m_1||^2 and r = <m_0, m_1> of the
    rows of M are binary quadratics.  With F = p + q and
    D = (p - q)^2 + 4 r^2, s_1^2 = (F + sqrt(D)) / 2 and
    F'^2 D - (D'/2)^2 = 4 (s_1^2)' (s_2^2)' (s_1^2 - s_2^2)^2, a binary
    octic whose real roots hold every critical angle of s_1.  It is built
    from D, not from pq - r^2, which cancels where s_1 is close to s_2, and
    sampled from the coefficients of p - q, r and F, formed once: D and D'
    then belong to one quartic, and a nearly double root stays nearly
    double.  The octic vanishes identically only where s_1 or s_2 is
    constant or s_1 = s_2, and there the maximizer theta_F of F also
    maximizes s_1, so theta_F is always a candidate.  The value is s_1 at
    the best candidate, which the rank-one point of its top singular
    vectors attains.
    """
    g = np.einsum("mxyc,mzwc->mxyzw", t, t)

    def gram(y, w):
        """<m_y, m_w> on the monomials cos^2, cos sin, sin^2."""
        return np.stack([g[:, 0, y, 0, w], g[:, 0, y, 1, w] + g[:, 1, y, 0, w],
                         g[:, 1, y, 1, w]], axis=1)

    def derivative(c):
        """The theta-derivative of a quadratic on the same monomials."""
        return np.stack([c[:, 1], 2.0 * (c[:, 2] - c[:, 0]), -c[:, 1]], axis=1)

    def monomials(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        return cos * cos, cos * sin, sin * sin

    def at(c, mono):
        return (c[:, 0, None] * mono[0] + c[:, 1, None] * mono[1]
                + c[:, 2, None] * mono[2])

    f, e, r = gram(0, 0) + gram(1, 1), gram(0, 0) - gram(1, 1), gram(0, 1)
    grid = monomials(_grid_angles(8)[None, :])
    ek, rk = at(e, grid), at(r, grid)
    octic = (at(derivative(f), grid) ** 2 * (ek * ek + 4.0 * rk * rk)
             - (ek * at(derivative(e), grid)
                + 4.0 * rk * at(derivative(r), grid)) ** 2)
    phi, w = _turned_frame(octic, 8, 8)
    theta = np.concatenate([phi[:, None] + np.arctan(_real_parts_of_roots(w)),
                            0.5 * np.arctan2(f[:, 1:2], f[:, :1] - f[:, 2:])],
                           axis=1)
    best = monomials(theta)
    return np.max(np.sqrt(at(f, best) / 2.0
                          + np.hypot(at(e, best) / 2.0, at(r, best))), axis=1)


# Restarts of `max_correlation_batch`'s HOPM; sweep cap of `rank_one_distance`.
BATCH_RESTARTS = 8
DISTANCE_SWEEPS = 500


def max_correlation_batch(space: SpaceSpec, points: Array) -> Array:
    """Best rank-one correlation max |<row, x>| over unit rank-one x, per
    row of a (batch, ambient) array of finite rows.  Rows are not
    normalized, so the result is degree-1 homogeneous on every path.

    - One factor of degree one: the row norm.
    - One factor of degree two: the largest |eigenvalue| of the quadratic
      form.  For binary quadratics c0 x^2 + sqrt(2) c1 x y + c2 y^2 it is
      the closed form |c0 + c2|/2 + hypot((c0 - c2)/2, c1/sqrt(2)), else
      LAPACK `eigvalsh` on the form's matrix.
    - Two degree-one factors: the top singular value of the row as a
      matrix, the square root of the largest eigenvalue of its Gram matrix
      on the smaller side, also from `eigvalsh`.
    - One binary factor of degree three or more: |p| at the global
      maximizer `_maximize_on_circle` finds on the whole circle.
    - A binary factor of degree two or more and a degree-one factor, in
      either order: the linear factor is eliminated, which leaves one
      binary form of twice the degree on the circle
      (`_binary_times_linear`).
    - Three degree-one factors, two of them binary, in any order: the
      largest top singular value of the pencil of matrices that the
      binary factors span, over the circle of one of them
      (`_pencil_top_singular_value`).

    Every other space runs the batched alternating maximization with
    BATCH_RESTARTS restarts, which can end at a local maximum.

    `mc_tube_volume` needs only whether a unit row's value exceeds a
    threshold, and on the quadratic and Gram spaces it decides that with
    `_is_positive_definite` instead of calling this function."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != space.ambient_dim:
        raise DomainError("batch shape does not match the space")
    if not np.all(np.isfinite(points)):
        raise DomainError("every row of the batch must be finite")
    dims, degrees = space.dims, space.degrees
    if space.r == 1 and degrees[0] == 1:
        return np.linalg.norm(points, axis=1)
    if space.r == 1 and degrees[0] == 2 and dims[0] == 1:
        c0, c1, c2 = points.T
        return np.abs(c0 + c2) / 2.0 + np.hypot((c0 - c2) / 2.0,
                                                c1 / math.sqrt(2.0))
    quadratic = space.r == 1 and degrees[0] == 2
    binary = dims == (1,)
    linear = degrees.index(1) if space.r == 2 and 1 in degrees else None
    binary_linear = (linear is not None and dims[1 - linear] == 1
                     and degrees[1 - linear] >= 2)
    pencil = degrees == (1, 1, 1) and dims.count(1) >= 2
    if not (quadratic or binary or binary_linear or pencil
            or degrees == (1, 1)):
        return _best_rank_one(space, points, BATCH_RESTARTS, 200)[0]
    # The exact kernels square entries (the Gram matrices) or raise them
    # to the degree, so each row is scaled to largest |entry| 1 first:
    # otherwise entries beyond about 1e+-150 underflow or overflow them.
    scale = np.max(np.abs(points), axis=1, initial=0.0)
    unit = points / np.where(scale > 0.0, scale, 1.0)[:, None]
    if quadratic:
        lam = np.linalg.eigvalsh(_quadratic_form_matrices(unit, dims[0]))
        return scale * np.maximum(-lam[:, 0], lam[:, -1])
    if binary:
        x = _circle_maximizer(unit, degrees[0])
        return scale * np.abs(np.einsum("ma,ma->m", unit,
                                        veronese_coeffs(x, degrees[0])))
    if binary_linear:
        t = unit.reshape(-1, *space.factor_dims)
        if linear == 0:
            t = t.swapaxes(1, 2)
        return scale * _binary_times_linear(t, degrees[1 - linear])
    if pencil:
        binary_first = sorted(range(3), key=lambda i: dims[i] != 1)
        t = unit.reshape(-1, *space.factor_dims).transpose(
            0, *(1 + i for i in binary_first))
        return scale * _pencil_top_singular_value(t)
    gram = _symmetric_matrices(_gram_entries(space, unit),
                               min(space.factor_dims))
    return scale * np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
