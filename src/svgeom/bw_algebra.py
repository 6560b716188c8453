"""Coefficient algebra for partially symmetric tensor spaces.

A space is a tensor product of homogeneous-polynomial factors, one factor per
pair (n_i, d_i): polynomials of degree d_i in n_i + 1 variables.  Every
element is stored by its coordinates in the orthonormal basis of scaled
monomials sqrt(multinomial(d, a)) * x^a, so the plain Euclidean dot product
of coefficient vectors *is* the Bombieri-Weyl inner product, and orthogonal
changes of variables act as orthogonal matrices on coefficients.

Multi-indices of each factor are ordered lexicographically with the exponent
of x_0 decreasing first; the slot of the pure power x_0^d therefore always
has rank 0.  Coefficients of the full tensor space are laid out in row-major
(mixed-radix) order over the factor ranks, which matches iterated Kronecker
products of factor coefficient vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError

Array = np.ndarray


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

def num_indices(n: int, d: int) -> int:
    """Number of degree-d multi-indices in n + 1 variables."""
    return math.comb(n + d, n)


@lru_cache(maxsize=None)
def multi_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices (a_0, ..., a_n) with sum d, x_0-exponent decreasing."""
    if n == 0:
        return ((d,),)
    out = []
    for a0 in range(d, -1, -1):
        for rest in multi_indices(n - 1, d - a0):
            out.append((a0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_table(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(multi_indices(n, d))}


def basis_rank(alpha: tuple[int, ...], n: int, d: int) -> int:
    """Rank of a multi-index in the basis ordering of the (n, d) factor."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n + 1 or any(a < 0 for a in alpha) or sum(alpha) != d:
        raise DomainError(f"invalid multi-index {alpha} for n={n}, d={d}")
    return _rank_table(n, d)[alpha]


@lru_cache(maxsize=None)
def exponent_matrix(n: int, d: int) -> Array:
    """Multi-indices stacked as an integer matrix of shape (D, n + 1)."""
    return np.array(multi_indices(n, d), dtype=np.int64)


@lru_cache(maxsize=None)
def sqrt_multinomials(n: int, d: int) -> Array:
    """sqrt(d! / prod(a_j!)) for every multi-index, in rank order."""
    fd = math.factorial(d)
    vals = [fd // math.prod(math.factorial(a) for a in alpha)
            for alpha in multi_indices(n, d)]
    return np.sqrt(np.array(vals, dtype=float))


# ---------------------------------------------------------------------------
# spaces and tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec:
    """A tensor product of polynomial factors, given by dims and degrees.

    dims[i] is the number of variables minus one in factor i, degrees[i] its
    homogeneity degree.  All derived dimensions are recomputed on demand.
    """

    dims: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        object.__setattr__(self, "degrees", tuple(int(v) for v in self.degrees))
        if len(self.dims) != len(self.degrees) or len(self.dims) < 1:
            raise DomainError("dims and degrees must be equal-length, nonempty")
        if any(v < 1 for v in self.dims) or any(v < 1 for v in self.degrees):
            raise DomainError("all dims and degrees must be >= 1")

    @property
    def r(self) -> int:
        return len(self.dims)

    @property
    def manifold_dim(self) -> int:
        """Dimension of the rank-one manifold: sum of the factor dims."""
        return sum(self.dims)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(num_indices(n, d) for n, d in zip(self.dims, self.degrees))

    @property
    def ambient_dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def sphere_dim(self) -> int:
        return self.ambient_dim - 1

    @property
    def normal_dim(self) -> int:
        """Codimension of the rank-one manifold inside the unit sphere."""
        return self.sphere_dim - self.manifold_dim

    def strides(self) -> tuple[int, ...]:
        """Row-major strides of the factor-rank layout."""
        out, acc = [], 1
        for fd in reversed(self.factor_dims):
            out.append(acc)
            acc *= fd
        return tuple(reversed(out))

    def to_json_dict(self) -> dict:
        return {"dims": list(self.dims), "degrees": list(self.degrees)}


@dataclass(frozen=True, eq=False)
class Tensor:
    """A point of a tensor space, as coefficients in the orthonormal basis."""

    space: SpaceSpec
    coeffs: Array

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if c.shape[0] != self.space.ambient_dim:
            raise DomainError(
                f"coefficient length {c.shape[0]} does not match ambient "
                f"dimension {self.space.ambient_dim}")
        object.__setattr__(self, "coeffs", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _check_same_space(f: Tensor, g: Tensor) -> None:
    if f.space != g.space:
        raise DomainError(f"mismatched spaces {f.space} vs {g.space}")


def bw_inner(f: Tensor, g: Tensor) -> float:
    """Bombieri-Weyl inner product: the dot of coefficient vectors."""
    _check_same_space(f, g)
    return float(np.dot(f.coeffs, g.coeffs))


def angular_distance(f: Tensor, g: Tensor) -> float:
    """Geodesic distance on the unit sphere, arccos of the inner product."""
    _check_same_space(f, g)
    if not (abs(f.norm - 1.0) <= 1e-9 and abs(g.norm - 1.0) <= 1e-9):
        raise DomainError("angular_distance requires unit-norm tensors")
    return float(np.arccos(np.clip(np.dot(f.coeffs, g.coeffs), -1.0, 1.0)))


def evaluate(f: Tensor, ell) -> float:
    """Evaluate a single-factor polynomial at the coefficient vector ell.

    Works directly from the monomial expansion, without going through the
    power embedding; the two routes are cross-checked in the tests.
    """
    if f.space.r != 1:
        raise DomainError("evaluate is defined for single-factor spaces only")
    n, d = f.space.dims[0], f.space.degrees[0]
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (n + 1,):
        raise DomainError(f"point must have {n + 1} coordinates")
    sq = sqrt_multinomials(n, d)
    terms = []
    for coeff, scale, alpha in zip(f.coeffs, sq, multi_indices(n, d)):
        terms.append(coeff * scale * math.prod(float(x) ** a for x, a in zip(ell, alpha)))
    return math.fsum(terms)


def gaussian_tensor(space: SpaceSpec, seed: int) -> Tensor:
    """I.i.d. standard normal coefficients, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return Tensor(space, rng.standard_normal(space.ambient_dim))


# ---------------------------------------------------------------------------
# multiplication by a variable and orthogonal substitution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def multiply_table(n: int, d: int) -> Array:
    """The maps p -> x_j p from degree d - 1 to d, read-only, stacked over j:
    x_j e_a = sqrt(b_j / d) e_b with b = a + e_j, so a linear form w
    multiplies by tensordot(w, table, 1)."""
    ranks = _rank_table(n, d)
    table = np.zeros((n + 1, num_indices(n, d), num_indices(n, d - 1)))
    for a, alpha in enumerate(multi_indices(n, d - 1)):
        for j in range(n + 1):
            beta = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
            table[j, ranks[beta], a] = math.sqrt(beta[j] / d)
    table.setflags(write=False)
    return table


def veronese_coeffs(ell, d: int) -> Array:
    """Orthonormal-basis coordinates of d-th powers of the forms in ell[..., :]."""
    ell = np.asarray(ell, dtype=float)
    if d == 1:
        # The exponent matrix is the identity and every multinomial is one.
        return ell.copy()
    n = ell.shape[-1] - 1
    powers = np.prod(ell[..., None, :] ** exponent_matrix(n, d), axis=-1)
    return sqrt_multinomials(n, d) * powers


def compose_matrix(q: Array, d: int) -> Array:
    """Matrix of the substitution x -> Qx on degree-d coefficient vectors.

    Built degree by degree: with the tables M of degree k the substitution
    has C_k M_j = (q_j . M) C_(k-1), and sum_j M_j M_j^T = I."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0] - 1
    mat = np.ones((1, 1))
    for k in range(1, d + 1):
        m = multiply_table(n, k)
        mat = np.tensordot(np.tensordot(q, m, 1) @ mat, m, axes=([0, 2], [0, 2]))
    return mat


def _check_orthogonal(q: Array, tol: float = 1e-10) -> None:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DomainError("orthogonal factors must be square matrices")
    if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > tol:
        raise DomainError("matrix is not orthogonal within 1e-10")


def apply_orthogonal(f: Tensor, qs) -> Tensor:
    """Substitute x -> Q_i x in every factor, extended linearly.

    Each Q_i must be orthogonal; the operation then preserves the inner
    product.
    """
    space = f.space
    qs = [np.asarray(q, dtype=float) for q in qs]
    if len(qs) != space.r:
        raise DomainError(f"expected {space.r} matrices, got {len(qs)}")
    for q, n in zip(qs, space.dims):
        _check_orthogonal(q)
        if q.shape[0] != n + 1:
            raise DomainError("matrix size does not match factor dimension")
    t = f.coeffs.reshape(space.factor_dims)
    for axis, (q, d) in enumerate(zip(qs, space.degrees)):
        m = compose_matrix(q, d)
        t = np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)
    return Tensor(space, t.reshape(-1))


def random_orthogonal(size: int, rng: np.random.Generator) -> Array:
    """Orthogonal matrix from QR of a Gaussian matrix, sign-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def kron_all(vectors) -> Array:
    """Kronecker product of coefficient vectors, in factor order."""
    return reduce(np.kron, vectors)

