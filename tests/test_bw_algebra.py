import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svgeom import (
    DomainError,
    SpaceSpec,
    Tensor,
    angular_distance,
    apply_orthogonal,
    basis_rank,
    bw_inner,
    evaluate,
    gaussian_tensor,
    multi_indices,
    random_orthogonal,
    veronese_embed,
)
from svgeom.bw_algebra import kron_all, multiply_table, num_indices, veronese_coeffs


def unit_gaussian(space, seed):
    t = gaussian_tensor(space, seed)
    return Tensor(space, t.coeffs / t.norm)


# ---------------------------------------------------------------------------
# multi-index ranks
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert basis_rank((2, 0), 1, 2) == 0
    assert basis_rank((0, 2), 1, 2) == 2


def test_rank_unrank_roundtrip_n2_d3():
    assert num_indices(2, 3) == 10
    for alpha in multi_indices(2, 3):
        assert multi_indices(2, 3)[basis_rank(alpha, 2, 3)] == alpha


@given(st.integers(1, 3), st.integers(1, 5))
def test_rank_is_bijection(n, d):
    ranks = sorted(basis_rank(a, n, d) for a in multi_indices(n, d))
    assert ranks == list(range(num_indices(n, d)))


def test_rank_rejects_bad_indices():
    with pytest.raises(DomainError):
        basis_rank((1, 0), 1, 2)
    with pytest.raises(DomainError):
        basis_rank((2, 0, 0), 1, 2)
    with pytest.raises(DomainError):
        basis_rank((-1, 3), 1, 2)


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def test_basis_is_orthonormal():
    space = SpaceSpec((2,), (3,))
    eye = np.eye(space.ambient_dim)
    basis = [Tensor(space, row) for row in eye]
    gram = np.array([[bw_inner(f, g) for g in basis] for f in basis])
    assert np.array_equal(gram, eye)


def test_reproducing_example():
    space = SpaceSpec((1,), (2,))
    f = Tensor(space, [1.0, 0.0, 1.0])  # x0^2 + x1^2
    g = veronese_embed((3 / 5, 4 / 5), 2)
    assert bw_inner(f, g) == pytest.approx(1.0, abs=1e-15)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_inner_symmetry(seed_f, seed_g):
    space = SpaceSpec((1, 1), (2, 1))
    f, g = gaussian_tensor(space, seed_f), gaussian_tensor(space, seed_g)
    assert bw_inner(f, g) == bw_inner(g, f)


@given(st.integers(0, 10 ** 6), st.floats(-3, 3), st.floats(-3, 3))
def test_inner_bilinearity(seed, a, b):
    space = SpaceSpec((1,), (3,))
    f = gaussian_tensor(space, seed)
    g = gaussian_tensor(space, seed + 1)
    h = gaussian_tensor(space, seed + 2)
    combo = Tensor(space, a * f.coeffs + b * g.coeffs)
    expected = a * bw_inner(f, h) + b * bw_inner(g, h)
    assert bw_inner(combo, h) == pytest.approx(expected, abs=1e-10)


def test_inner_rejects_mismatched_spaces():
    f = gaussian_tensor(SpaceSpec((1,), (2,)), 0)
    g = gaussian_tensor(SpaceSpec((1,), (3,)), 0)
    with pytest.raises(DomainError):
        bw_inner(f, g)


def test_product_rule_for_simple_tensors():
    rng = np.random.default_rng(3)
    space = SpaceSpec((1, 2, 1), (2, 1, 3))
    for _ in range(25):
        f_factors = [rng.standard_normal(k) for k in space.factor_dims]
        g_factors = [rng.standard_normal(k) for k in space.factor_dims]
        f = Tensor(space, kron_all(f_factors))
        g = Tensor(space, kron_all(g_factors))
        expected = math.prod(float(np.dot(a, b))
                             for a, b in zip(f_factors, g_factors))
        assert bw_inner(f, g) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# angular distance
# ---------------------------------------------------------------------------

def test_angular_distance_endpoints():
    space = SpaceSpec((1,), (2,))
    e = Tensor(space, [1.0, 0.0, 0.0])
    minus_e = Tensor(space, [-1.0, 0.0, 0.0])
    other = Tensor(space, [0.0, 1.0, 0.0])
    assert angular_distance(e, e) == 0.0
    assert angular_distance(e, minus_e) == pytest.approx(math.pi)
    assert angular_distance(e, other) == pytest.approx(math.pi / 2)


def test_angular_distance_requires_unit_norm():
    space = SpaceSpec((1,), (2,))
    e = Tensor(space, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        angular_distance(e, Tensor(space, [2.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_monomials():
    space = SpaceSpec((1,), (2,))
    assert evaluate(Tensor(space, [1.0, 0.0, 0.0]), (1.0, 0.0)) == 1.0
    got = evaluate(Tensor(space, [0.0, 1.0, 0.0]), (3 / 5, 4 / 5))
    assert got == pytest.approx(math.sqrt(2) * 12 / 25, abs=1e-15)


def test_evaluate_matches_embedding_route():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 5))
        space = SpaceSpec((n,), (d,))
        f = gaussian_tensor(space, int(rng.integers(2 ** 31)))
        ell = rng.standard_normal(n + 1)
        ell /= np.linalg.norm(ell)
        assert evaluate(f, ell) == pytest.approx(
            bw_inner(f, veronese_embed(ell, d)), abs=1e-12)


def test_evaluate_rejects_multifactor():
    with pytest.raises(DomainError):
        evaluate(gaussian_tensor(SpaceSpec((1, 1), (1, 1)), 0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# orthogonal substitution
# ---------------------------------------------------------------------------

def test_apply_orthogonal_identity():
    space = SpaceSpec((1, 2), (2, 1))
    f = gaussian_tensor(space, 5)
    qs = [np.eye(n + 1) for n in space.dims]
    assert np.allclose(apply_orthogonal(f, qs).coeffs, f.coeffs, atol=1e-14)


def test_apply_orthogonal_invariance():
    rng = np.random.default_rng(7)
    for dims, degrees in [((1,), (2,)), ((2,), (3,)), ((1, 1), (2, 1))]:
        space = SpaceSpec(dims, degrees)
        for _ in range(10):
            f = gaussian_tensor(space, int(rng.integers(2 ** 31)))
            g = gaussian_tensor(space, int(rng.integers(2 ** 31)))
            qs = [random_orthogonal(n + 1, rng) for n in dims]
            lhs = bw_inner(apply_orthogonal(f, qs), apply_orthogonal(g, qs))
            assert abs(lhs - bw_inner(f, g)) <= 1e-10 * f.norm * g.norm


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quarter_turn_swaps_pure_powers(d):
    # x0 -> -x1, x1 -> x0 under the rotation, so x0^d -> (-x1)^d.
    space = SpaceSpec((1,), (d,))
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = Tensor(space, np.eye(space.ambient_dim)[0])
    image = apply_orthogonal(f, [q]).coeffs
    expected = np.zeros(space.ambient_dim)
    expected[-1] = (-1.0) ** d
    assert np.allclose(image, expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", range(1, 7))
def test_apply_orthogonal_substitutes_pointwise(n, d):
    # The image is f(Qx), checked at points through the monomial route of
    # `evaluate`, which never touches the multiply-by-x_j table.
    rng = np.random.default_rng([29, n, d])
    space = SpaceSpec((n,), (d,))
    for _ in range(5):
        f = Tensor(space, rng.standard_normal(space.ambient_dim))
        q = random_orthogonal(n + 1, rng)
        x = rng.standard_normal(n + 1)
        x /= np.linalg.norm(x)
        got = evaluate(apply_orthogonal(f, [q]), x)
        assert abs(got - evaluate(f, q @ x)) <= 1e-12 * f.norm


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", range(2, 7))
def test_multiply_table_multiplies_pointwise(n, d):
    # (w . table) p evaluates to (w . x) p(x), by the monomial route.
    rng = np.random.default_rng([31, n, d])
    table = multiply_table(n, d)
    assert table.shape == (n + 1, num_indices(n, d), num_indices(n, d - 1))
    for _ in range(5):
        p = Tensor(SpaceSpec((n,), (d - 1,)), rng.standard_normal(table.shape[2]))
        w = rng.standard_normal(n + 1)
        x = rng.standard_normal(n + 1)
        x /= np.linalg.norm(x)
        product = Tensor(SpaceSpec((n,), (d,)), np.tensordot(w, table, 1) @ p.coeffs)
        assert abs(evaluate(product, x) - (w @ x) * evaluate(p, x)) <= \
            1e-12 * np.linalg.norm(w) * p.norm


def test_apply_orthogonal_rejects_non_orthogonal():
    space = SpaceSpec((1,), (2,))
    f = gaussian_tensor(space, 0)
    with pytest.raises(DomainError):
        apply_orthogonal(f, [np.array([[1.0, 0.0], [0.0, 2.0]])])


# ---------------------------------------------------------------------------
# gaussian sampling
# ---------------------------------------------------------------------------

def test_gaussian_tensor_deterministic():
    space = SpaceSpec((2, 1), (1, 2))
    assert np.array_equal(gaussian_tensor(space, 9).coeffs,
                          gaussian_tensor(space, 9).coeffs)


def test_gaussian_coefficient_variance():
    space = SpaceSpec((1,), (9,))  # ambient 10
    draws = 10_000
    coeffs = np.concatenate([gaussian_tensor(space, seed).coeffs
                             for seed in range(draws)])
    assert coeffs.size == 100_000
    assert abs(np.var(coeffs, ddof=1) - 1.0) < 0.02


def test_gaussian_norm_squared_mean():
    space = SpaceSpec((1,), (9,))
    draws = 10_000
    sq = np.array([float(np.dot(t.coeffs, t.coeffs))
                   for t in (gaussian_tensor(space, s + 10 ** 6)
                             for s in range(draws))])
    se = math.sqrt(2 * space.ambient_dim / draws)
    assert abs(np.mean(sq) - space.ambient_dim) < 3 * se


# ---------------------------------------------------------------------------
# space validation
# ---------------------------------------------------------------------------

def test_space_derived_dimensions():
    space = SpaceSpec((2, 2, 1, 1), (1, 1, 1, 1))
    assert space.manifold_dim == 6
    assert space.ambient_dim == 36
    assert space.sphere_dim == 35
    assert space.normal_dim == 29


def test_space_rejects_bad_input():
    with pytest.raises(DomainError):
        SpaceSpec((), ())
    with pytest.raises(DomainError):
        SpaceSpec((1, 2), (1,))
    with pytest.raises(DomainError):
        SpaceSpec((0,), (1,))
    with pytest.raises(DomainError):
        SpaceSpec((1,), (0,))


def test_embed_norm_scales_with_input():
    # The power embedding multiplies norms: |ell^d| = |ell|^d.
    ell = np.array([1.0, 2.0])
    got = np.linalg.norm(veronese_coeffs(ell, 3))
    assert got == pytest.approx(np.linalg.norm(ell) ** 3, rel=1e-14)
