import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svgeom import (
    DomainError,
    SegrePoint,
    SpaceSpec,
    Tensor,
    angular_distance,
    apply_orthogonal,
    base_point,
    bw_inner,
    curvature_closed_form,
    embed,
    evaluate,
    gaussian_tensor,
    max_correlation_batch,
    normal_split,
    project_components,
    random_orthogonal,
    random_segre_point,
    rank_one_distance,
    tangent_frame,
    veronese_embed,
)
from svgeom import manifold
from svgeom.bw_algebra import multi_indices, veronese_coeffs
from svgeom.manifold import (
    _best_rank_one,
    _quadratic_form_matrices,
    orthonormal_complement,
)
from svgeom.montecarlo import _hits

SMALL_SPACES = [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)), ((1, 1), (2, 1)),
                ((2, 1), (1, 2))]


# ---------------------------------------------------------------------------
# power embedding
# ---------------------------------------------------------------------------

def test_veronese_embed_examples():
    assert np.allclose(veronese_embed((1.0, 0.0), 2).coeffs, [1.0, 0.0, 0.0])
    got = veronese_embed((3 / 5, 4 / 5), 2).coeffs
    assert np.allclose(got, [0.36, 24 / (25 * math.sqrt(2)), 0.64], atol=1e-15)


def test_veronese_embed_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        ell = rng.standard_normal(n + 1)
        ell /= np.linalg.norm(ell)
        assert abs(veronese_embed(ell, d).norm - 1.0) <= 1e-12


def test_embed_base_point_is_first_slot():
    space = SpaceSpec((2, 1), (2, 3))
    e = embed(base_point(space))
    expected = np.zeros(space.ambient_dim)
    expected[0] = 1.0
    assert np.array_equal(e.coeffs, expected)


def test_embed_segre_uniform_forms():
    space = SpaceSpec((1, 1), (1, 1))
    ell = (1 / math.sqrt(2), 1 / math.sqrt(2))
    p = SegrePoint(space, (ell, ell))
    assert np.allclose(embed(p).coeffs, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_embed_inner_product_is_power_product():
    rng = np.random.default_rng(4)
    space = SpaceSpec((2, 1), (2, 3))
    for _ in range(20):
        p = random_segre_point(space, rng)
        q = random_segre_point(space, rng)
        expected = p.sign * q.sign * math.prod(
            float(np.dot(a, b)) ** d
            for a, b, d in zip(p.forms, q.forms, space.degrees))
        assert bw_inner(embed(p), embed(q)) == pytest.approx(expected, abs=1e-12)


def test_embed_has_unit_norm():
    rng = np.random.default_rng(5)
    for dims, degrees in SMALL_SPACES:
        p = random_segre_point(SpaceSpec(dims, degrees), rng)
        assert abs(embed(p).norm - 1.0) <= 1e-10


def test_segre_point_validation():
    space = SpaceSpec((1,), (2,))
    with pytest.raises(DomainError):
        SegrePoint(space, (np.array([1.0, 1.0]),))
    with pytest.raises(DomainError):
        SegrePoint(space, (np.array([1.0, 0.0]),), sign=0)


def test_canonical_preserves_embedding():
    rng = np.random.default_rng(6)
    space = SpaceSpec((1, 1), (2, 3))
    for _ in range(20):
        p = random_segre_point(space, rng)
        flipped = SegrePoint(space, tuple(-f for f in p.forms), p.sign)
        canon = flipped.canonical()
        assert np.allclose(embed(canon).coeffs, embed(flipped).coeffs, atol=1e-14)
        for f in canon.forms:
            nz = np.nonzero(f)[0]
            assert f[nz[0]] > 0


# ---------------------------------------------------------------------------
# normal split
# ---------------------------------------------------------------------------

def test_split_veronese_1_2():
    split = normal_split(SpaceSpec((1,), (2,)))
    assert split.tangent_labels == ((0, 1),)
    assert split.w_labels == ((0, (1, 1)),)
    assert split.g_labels == ()
    assert split.p_dim == 0


def test_split_segre_2211():
    space = SpaceSpec((2, 2, 1, 1), (1, 1, 1, 1))
    split = normal_split(space)
    assert len(split.tangent_labels) == 6
    assert len(split.w_labels) == 0
    assert len(split.g_labels) == 13
    assert split.p_dim == 16
    assert space.ambient_dim == 36


def test_split_indices_distinct_and_orthonormal():
    space = SpaceSpec((2, 1), (2, 3))
    split = normal_split(space)
    indices = np.concatenate(([split.base_index], split.tangent_indices,
                              split.w_indices, split.g_indices))
    assert len(set(indices.tolist())) == len(indices)
    e = embed(base_point(space)).coeffs
    assert np.array_equal(e[indices[1:]], np.zeros(len(indices) - 1))


def _spaces_with_ambient_below(cap):
    out = []
    for r in (1, 2, 3):
        grids = {1: [(n,) for n in range(1, 4)],
                 2: [(a, b) for a in range(1, 4) for b in range(1, 3)],
                 3: [(a, b, c) for a in range(1, 3) for b in range(1, 3)
                     for c in range(1, 3)]}
        for dims in grids[r]:
            for degrees in grids[r]:
                space = SpaceSpec(dims, degrees)
                if space.ambient_dim <= cap:
                    out.append(space)
    return out


def test_dimension_bookkeeping_identity():
    for space in _spaces_with_ambient_below(10_000):
        split = normal_split(space)
        w_expected = sum(n * (n + 1) // 2
                         for n, d in zip(space.dims, space.degrees) if d >= 2)
        g_expected = sum(space.dims[i] * space.dims[j]
                         for i in range(space.r)
                         for j in range(i + 1, space.r))
        assert len(split.w_labels) == w_expected
        assert len(split.g_labels) == g_expected
        total = (1 + space.manifold_dim + len(split.w_labels)
                 + len(split.g_labels) + split.p_dim)
        assert total == space.ambient_dim


# ---------------------------------------------------------------------------
# component projection
# ---------------------------------------------------------------------------

def test_project_base_point():
    space = SpaceSpec((2, 1), (2, 3))
    split = normal_split(space)
    comp = project_components(embed(base_point(space)), split)
    assert comp.base == 1.0
    assert np.all(comp.tangent == 0) and np.all(comp.w == 0) and np.all(comp.g == 0)
    assert comp.p_norm == 0.0


def test_project_w_basis_vector():
    space = SpaceSpec((2, 1), (3, 2))
    split = normal_split(space)
    f = Tensor(space, np.eye(space.ambient_dim)[split.w_indices[0]])
    comp = project_components(f, split)
    assert comp.w[0] == 1.0
    assert np.sum(np.abs(comp.w)) == 1.0
    assert comp.base == 0.0 and np.all(comp.tangent == 0) and np.all(comp.g == 0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_project_parseval(seed):
    space = SpaceSpec((1, 1), (2, 1))
    split = normal_split(space)
    f = gaussian_tensor(space, seed)
    comp = project_components(f, split)
    total = (comp.base ** 2 + float(np.dot(comp.tangent, comp.tangent))
             + float(np.dot(comp.w, comp.w)) + float(np.dot(comp.g, comp.g))
             + comp.p_norm ** 2)
    assert abs(total - f.norm ** 2) <= 1e-10 * max(1.0, f.norm ** 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tensor_is_rejected(bad):
    # The bad entry sits in the W block; unchecked, p_norm came out NaN and
    # the flat-complement test answered False.
    space = SpaceSpec((1,), (2,))
    split = normal_split(space)
    f = Tensor(space, [0.0, 0.0, bad])
    with pytest.raises(DomainError, match="finite"):
        project_components(f, split)
    with pytest.raises(DomainError, match="finite"):
        split.in_flat_complement(f)


# ---------------------------------------------------------------------------
# local isometry and homogeneity
# ---------------------------------------------------------------------------

def test_tangent_frame_is_orthonormal():
    rng = np.random.default_rng(8)
    for dims, degrees in SMALL_SPACES:
        space = SpaceSpec(dims, degrees)
        for _ in range(5):
            p = random_segre_point(space, rng)
            frame = np.stack([t.coeffs for t in tangent_frame(p)])
            gram = frame @ frame.T
            assert np.max(np.abs(gram - np.eye(space.manifold_dim))) <= 1e-10


def test_tangent_frame_rows_are_derivatives_of_embed():
    # Row (i, k) is d/dt embed(p) with form i turned toward the k-th
    # complement direction v, cos(t) ell_i + sin(t) v, over sqrt(d_i),
    # against a central difference.
    rng = np.random.default_rng(18)
    h = 1e-5
    for dims, degrees in SMALL_SPACES + [((3,), (6,)), ((2, 1), (4, 3))]:
        space = SpaceSpec(dims, degrees)
        for _ in range(3):
            p = random_segre_point(space, rng)
            rows = iter(tangent_frame(p))
            for i, d in enumerate(degrees):
                for v in orthonormal_complement(p.forms[i]).T:
                    def turned(t):
                        forms = list(p.forms)
                        forms[i] = math.cos(t) * forms[i] + math.sin(t) * v
                        return embed(SegrePoint(space, forms, p.sign)).coeffs
                    fd = (turned(h) - turned(-h)) / (2.0 * h * math.sqrt(d))
                    assert np.max(np.abs(next(rows).coeffs - fd)) <= 1e-8
            assert next(rows, None) is None


def test_group_action_maps_points_to_points():
    rng = np.random.default_rng(9)
    space = SpaceSpec((1, 1), (2, 1))
    for _ in range(10):
        p = random_segre_point(space, rng)
        qs = [random_orthogonal(n + 1, rng) for n in space.dims]
        moved = apply_orthogonal(embed(p), qs)
        # The image is the embedding of the point with substituted forms.
        q_point = SegrePoint(space, tuple(q.T @ f for q, f in zip(qs, p.forms)),
                             p.sign)
        assert np.allclose(moved.coeffs, embed(q_point).coeffs, atol=1e-10)
        refit = rank_one_distance(Tensor(space, moved.coeffs / moved.norm))
        assert refit.distance <= 1e-6
        assert abs(abs(bw_inner(embed(refit.point), moved)) - 1.0) <= 1e-8


# ---------------------------------------------------------------------------
# rank-one distance
# ---------------------------------------------------------------------------

def test_distance_at_point_is_zero():
    space = SpaceSpec((1,), (2,))
    res = rank_one_distance(embed(base_point(space)))
    assert res.distance <= 1e-9


def test_distance_of_mixed_monomial_matches_sweep():
    space = SpaceSpec((1,), (2,))
    f = Tensor(space, [0.0, 1.0, 0.0])
    thetas = np.linspace(0.0, math.pi, 20001)
    best = max(abs(bw_inner(f, veronese_embed((math.cos(t), math.sin(t)), 2)))
               for t in thetas)
    res = rank_one_distance(f)
    assert res.correlation == pytest.approx(best, abs=1e-8)
    assert res.distance == pytest.approx(math.pi / 4, abs=1e-9)


def test_distance_zero_on_random_points():
    rng = np.random.default_rng(10)
    for dims, degrees in SMALL_SPACES:
        space = SpaceSpec(dims, degrees)
        p = random_segre_point(space, rng)
        res = rank_one_distance(embed(p))
        assert res.distance <= 1e-6
        assert res.converged


def test_distance_is_lipschitz():
    rng = np.random.default_rng(12)
    for dims, degrees in [((1,), (2,)), ((1, 1), (1, 1)), ((1, 1), (2, 1))]:
        space = SpaceSpec(dims, degrees)
        for _ in range(5):
            f = gaussian_tensor(space, int(rng.integers(2 ** 31)))
            g = gaussian_tensor(space, int(rng.integers(2 ** 31)))
            f = Tensor(space, f.coeffs / f.norm)
            g = Tensor(space, g.coeffs / g.norm)
            df, dg = rank_one_distance(f).distance, rank_one_distance(g).distance
            assert abs(df - dg) <= angular_distance(f, g) + 1e-6


def test_distance_requires_unit_norm():
    space = SpaceSpec((1,), (2,))
    with pytest.raises(DomainError):
        rank_one_distance(Tensor(space, [2.0, 0.0, 0.0]))


def test_argmin_point_realizes_correlation():
    rng = np.random.default_rng(13)
    space = SpaceSpec((1, 1), (2, 3))
    f = gaussian_tensor(space, int(rng.integers(2 ** 31)))
    f = Tensor(space, f.coeffs / f.norm)
    res = rank_one_distance(f)
    assert bw_inner(embed(res.point), f) == pytest.approx(res.correlation,
                                                          abs=1e-9)


@pytest.mark.parametrize("n,d", [(2, 3), (2, 5), (3, 4), (3, 6)])
def test_hopm_gradient_matches_central_difference(n, d, monkeypatch):
    # The SS-HOPM step of `_maximize_factor` searches the great circle
    # through ell and the gradient of p = <c, veronese(ell, d)>, so the
    # circle's direction u must be the gradient's part orthogonal to ell,
    # here from a central difference of `evaluate`.
    rng = np.random.default_rng([43, n, d])
    space = SpaceSpec((n,), (d,))
    c = rng.standard_normal((10, space.ambient_dim))
    ell = rng.standard_normal((10, n + 1))
    ell /= np.linalg.norm(ell, axis=1, keepdims=True)
    seen = []

    def spy(c, d, ell, u):
        seen.append(u)
        return ell

    monkeypatch.setattr(manifold, "_maximize_on_circle", spy)
    manifold._maximize_factor(c, n, d, ell)
    h = 1e-5
    for row, u in enumerate(seen[0]):
        f = Tensor(space, c[row])
        grad = np.array([evaluate(f, ell[row] + h * e) - evaluate(f, ell[row] - h * e)
                         for e in np.eye(n + 1)]) / (2.0 * h)
        along = grad - (grad @ ell[row]) * ell[row]
        assert np.linalg.norm(u - (u @ along) * along / (along @ along)) <= 1e-7


# ---------------------------------------------------------------------------
# batched correlation fast paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims,degrees", [((1,), (2,)), ((2,), (2,)),
                                          ((1, 1), (1, 1)), ((2, 1), (1, 1))])
def test_batch_matches_generic_optimizer(dims, degrees):
    space = SpaceSpec(dims, degrees)
    rng = np.random.default_rng(14)
    points = rng.standard_normal((12, space.ambient_dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    fast = max_correlation_batch(space, points)
    for row, expected in zip(points, fast):
        res = rank_one_distance(Tensor(space, row))
        assert res.correlation == pytest.approx(float(expected), abs=1e-8)


# Spaces whose correlation is a maximum over one circle: one binary
# factor, a binary factor times a degree-one factor in either order, and
# three degree-one factors, two of them binary, with the wide factor last,
# first or in the middle.
BINARY_SPACES = [((1,), (3,)), ((1,), (5,)), ((1, 1), (2, 1)),
                 ((1, 2), (3, 1)), ((3, 1), (1, 4)), ((1, 1, 1), (1, 1, 1)),
                 ((2, 1, 1), (1, 1, 1)), ((1, 3, 1), (1, 1, 1))]

# One space per path of max_correlation_batch: the norm, binary-quadratic
# and square-Gram paths, the binary-times-linear and binary-form paths, the
# kernel's higher-degree factor update, the quadratic-form and
# rectangular-Gram paths that call eigvalsh, the pencil path of two
# binary degree-one factors, the kernel's degree-two and binary factor
# updates, the binary-times-linear path with the linear factor first, and
# the kernel's degree-one factor update.
PATH_SPACES = [((2,), (1,)), ((1,), (2,)), ((1, 1), (1, 1)), ((1, 1), (2, 1)),
               ((1,), (3,)), ((2,), (3,)), ((2,), (2,)), ((2, 1), (1, 1)),
               ((1, 1, 1), (1, 1, 1)), ((1, 1), (2, 3)), ((3, 1), (1, 4)),
               ((2, 2, 1), (1, 1, 1))]


@pytest.mark.parametrize("dims,degrees", PATH_SPACES)
def test_batch_zero_row_gives_zero(dims, degrees):
    space = SpaceSpec(dims, degrees)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = max_correlation_batch(space, np.zeros((1, space.ambient_dim)))
    assert out.tolist() == [0.0]


@pytest.mark.parametrize("dims,degrees", PATH_SPACES)
def test_batch_is_degree_one_homogeneous(dims, degrees):
    space = SpaceSpec(dims, degrees)
    points = np.random.default_rng(16).standard_normal((6, space.ambient_dim))
    base = max_correlation_batch(space, points)
    scaled = max_correlation_batch(space, 3.0 * points)
    assert np.max(np.abs(scaled - 3.0 * base)) <= 1e-12
    # the stopping rule is relative to the row norm, so small rows converge
    # as far as unit ones
    small = max_correlation_batch(space, 1e-6 * points)
    assert np.max(np.abs(1e6 * small - base)) <= 1e-12


def test_binary_quadratic_closed_form_matches_eigvalsh():
    rows = np.random.default_rng(17).standard_normal((100_000, 3))
    rows[:1000, 1] = 0.0                      # c0 = c2, c1 = 0: a double
    rows[:1000, 2] = rows[:1000, 0]           # eigenvalue
    rows[1000:2000, 2] = -rows[1000:2000, 0]  # c0 = -c2: opposite eigenvalues
    got = max_correlation_batch(SpaceSpec((1,), (2,)), rows)
    mats = _quadratic_form_matrices(rows, 1)
    want = np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)
    assert np.all(np.abs(got - want) <= 1e-14 * np.linalg.norm(rows, axis=1))


@pytest.mark.parametrize("dims", [(2, 2), (2, 1), (1, 2), (3, 1)])
def test_gram_top_singular_value_matches_svd(dims):
    space = SpaceSpec(dims, (1, 1))
    rng = np.random.default_rng(18)
    rows = rng.standard_normal((100_000, space.ambient_dim))
    a, b = space.factor_dims
    # rank-one rows: the Gram matrix is singular
    rows[:1000] = (rng.standard_normal((1000, a, 1))
                   * rng.standard_normal((1000, 1, b))).reshape(1000, -1)
    got = max_correlation_batch(space, rows)
    want = np.linalg.svd(rows.reshape(-1, a, b), compute_uv=False)[:, 0]
    assert np.all(np.abs(got - want) <= 1e-14 * np.linalg.norm(rows, axis=1))


def _form_coefficients(mats):
    """Coefficient rows of the quadratic forms of symmetric matrices: the
    inverse of `_quadratic_form_matrices`."""
    n = mats.shape[-1] - 1
    rows = np.empty((mats.shape[0], (n + 1) * (n + 2) // 2))
    for rank, alpha in enumerate(multi_indices(n, 2)):
        j, k = [i for i, a in enumerate(alpha) for _ in range(a)]
        rows[:, rank] = mats[:, j, k] * (1.0 if j == k else math.sqrt(2.0))
    return rows


def _adversarial_form_rows(n, rng):
    """100,000 Gaussian coefficient rows of (n,)/(2,), the first 3,010 of
    them hard cases for an eigenvalue or definiteness routine: 1,000 with
    a double top eigenvalue, 1,000 with an opposite-sign top pair, 1,000
    diagonal forms (every off-diagonal entry 0) and 10 zero rows."""
    rows = rng.standard_normal((100_000, (n + 1) * (n + 2) // 2))
    q = np.linalg.qr(rng.standard_normal((2000, n + 1, n + 1)))[0]
    lam = rng.uniform(-0.5, 0.5, (2000, n + 1))
    lam[:1000, 1] = lam[:1000, 0] = 2.0 * np.sign(lam[:1000, 0])
    lam[1000:, 0], lam[1000:, 1] = 2.0, -2.0
    rows[:2000] = _form_coefficients(q * lam[:, None, :]
                                     @ np.swapaxes(q, 1, 2))
    diagonal = [rank for rank, alpha in enumerate(multi_indices(n, 2))
                if max(alpha) == 2]
    rows[2000:3000] = 0.0
    rows[2000:3000, diagonal] = rng.standard_normal((1000, n + 1))
    rows[3000:3010] = 0.0
    return rows


@pytest.mark.parametrize("n", [2, 3])
def test_quadratic_form_correlation_is_top_abs_eigenvalue(n):
    # The constructed rows have known spectra: top |eigenvalue| 2 for the
    # first 2,000, the largest |coefficient| for the diagonal forms and 0
    # for the zero rows.  The Gaussian rows are held against eigvalsh.
    space = SpaceSpec((n,), (2,))
    rows = _adversarial_form_rows(n, np.random.default_rng(20 + n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = max_correlation_batch(space, rows)
    want = np.empty(len(rows))
    want[:2000] = 2.0
    want[2000:3010] = np.max(np.abs(rows[2000:3010]), axis=1)
    want[3010:] = np.max(np.abs(np.linalg.eigvalsh(
        _quadratic_form_matrices(rows[3010:], n))), axis=1)
    assert np.all(np.abs(got - want) <= 1e-14 * np.linalg.norm(rows, axis=1))
    assert np.all(got[3000:3010] == 0.0)


def _decision_rows(space, rng):
    """100,000 unit rows of (n,)/(2,) or (a,b)/(1,1) whose first rows are
    hard cases for a definiteness test: for quadratic forms, those of
    `_adversarial_form_rows`, 1,000 with a negative dominant eigenvalue and
    1,000 rank-one forms +-v v^T; for matrices, 1,000 rank-one rows, 1,000
    with a double top singular value (when both sides exceed one), 1,000
    diagonal rows and 10 zero rows."""
    if space.degrees == (2,):
        n = space.dims[0]
        rows = _adversarial_form_rows(n, rng)
        q = np.linalg.qr(rng.standard_normal((1000, n + 1, n + 1)))[0]
        lam = rng.uniform(-0.5, 0.5, (1000, n + 1))
        lam[:, 0] = -2.0
        rows[3010:4010] = _form_coefficients(q * lam[:, None, :]
                                             @ np.swapaxes(q, 1, 2))
        v = rng.standard_normal((1000, n + 1))
        sign = rng.choice([-1.0, 1.0], (1000, 1, 1))
        rows[4010:5010] = _form_coefficients(sign * v[:, :, None]
                                             * v[:, None, :])
    else:
        a, b = space.factor_dims
        k = min(a, b)
        rows = rng.standard_normal((100_000, a * b))
        rows[:1000] = (rng.standard_normal((1000, a, 1))
                       * rng.standard_normal((1000, 1, b))).reshape(1000, -1)
        u = np.linalg.qr(rng.standard_normal((1000, a, k)))[0]
        w = np.linalg.qr(rng.standard_normal((1000, b, k)))[0]
        s = rng.uniform(0.0, 0.5, (1000, k))
        s[:, :2] = 2.0
        rows[1000:2000] = (u * s[:, None, :]
                           @ np.swapaxes(w, 1, 2)).reshape(1000, -1)
        rows[2000:3000] = 0.0
        diagonal = [i * b + i for i in range(k)]
        rows[2000:3000, diagonal] = rng.standard_normal((1000, k))
        rows[3000:3010] = 0.0
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


@pytest.mark.parametrize("dims,degrees", [((2,), (2,)), ((3,), (2,)),
                                          ((1, 1), (1, 1)), ((2, 2), (1, 1)),
                                          ((3, 2), (1, 1)), ((1, 5), (1, 1))])
def test_definiteness_decision_matches_correlation(dims, degrees):
    # The Monte Carlo hit test of these spaces is a positive-definiteness
    # decision; it must equal corr > tau wherever corr is not within
    # rounding of tau, at the cosines of fixed radii and 1e-9 on either
    # side of each row's own correlation.  Thresholds are cosines of radii
    # in (0, pi/2], so never negative.
    space = SpaceSpec(dims, degrees)
    rows = _decision_rows(space, np.random.default_rng(24))
    corr = max_correlation_batch(space, rows)
    radii = (0.05, 0.2, 0.4, 0.6, math.pi / 4, 1.2, math.pi / 2)
    for tau in [math.cos(eps) for eps in radii] + [
            np.maximum(corr - 1e-9, 0.0), corr + 1e-9]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _hits(space, rows, tau)
        far = np.abs(corr - tau) > 1e-12
        assert np.array_equal(got[far], (corr > tau)[far])


@pytest.mark.parametrize("dims,degrees", [((2,), (2,)), ((3,), (2,)),
                                          ((2, 1), (1, 1)), ((2, 2), (1, 1))])
def test_eigvalsh_paths_are_homogeneous_at_extreme_scales(dims, degrees):
    # Squared entries of rows this small or large underflow or overflow.
    space = SpaceSpec(dims, degrees)
    points = np.random.default_rng(21).standard_normal((50, space.ambient_dim))
    base = max_correlation_batch(space, points)
    for scale in (1e-160, 1e160):
        got = max_correlation_batch(space, scale * points) / scale
        assert np.all(np.abs(got - base) <= 1e-14 * base)


@pytest.mark.parametrize("dims,degrees", PATH_SPACES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_rejects_non_finite_rows(dims, degrees, bad):
    space = SpaceSpec(dims, degrees)
    points = np.ones((3, space.ambient_dim))
    points[1, -1] = bad
    with pytest.raises(DomainError, match="finite"):
        max_correlation_batch(space, points)


def _circle_max(coeffs, d):
    """max |p| on the unit circle for a binary d-form: a dense scan, with
    every local maximum refined by Newton steps on p'.  p is a trigonometric
    polynomial of degree d, so its Fourier series from 4d samples gives p'
    and p'' exactly."""
    f = Tensor(SpaceSpec((1,), (d,)), coeffs)
    grid = 2.0 * math.pi * np.arange(4 * d) / (4 * d)
    samples = [evaluate(f, (math.cos(x), math.sin(x))) for x in grid]
    fourier = np.fft.rfft(samples) / (4 * d)
    fourier[1:] *= 2.0
    freqs = np.arange(fourier.size)

    def deriv(theta, k):
        return np.real(np.exp(1j * np.outer(theta, freqs))
                       @ (fourier * (1j * freqs) ** k))

    theta = np.linspace(0.0, 2.0 * math.pi, 40001)[:-1]
    mag = np.abs(deriv(theta, 0))
    theta = theta[(mag >= np.roll(mag, 1)) & (mag >= np.roll(mag, -1))]
    for _ in range(6):
        theta = theta - deriv(theta, 1) / deriv(theta, 2)
    return float(np.max(np.abs(deriv(theta, 0))))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_binary_forms_match_circle_scan(d):
    space = SpaceSpec((1,), (d,))
    points = np.random.default_rng(17 + d).standard_normal((5, d + 1))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    batch = max_correlation_batch(space, points)
    for row, got in zip(points, batch):
        expected = _circle_max(row, d)
        assert abs(got - expected) <= 1e-12
        res = rank_one_distance(Tensor(space, row))
        assert abs(res.correlation - expected) <= 1e-12


@pytest.mark.parametrize("dims,degrees", [((1, 1), (2, 1)), ((1, 1, 1), (1, 1, 1)),
                                          ((2, 1), (1, 2)), ((2,), (3,)),
                                          ((1, 1), (2, 3)),
                                          ((2, 2, 1), (1, 1, 1))])
def test_kernel_beats_random_rank_one_search(dims, degrees):
    space = SpaceSpec(dims, degrees)
    rng = np.random.default_rng(18)
    cloud = np.ones((20000, 1))
    for n, d in zip(dims, degrees):
        forms = rng.standard_normal((20000, n + 1))
        forms /= np.linalg.norm(forms, axis=1, keepdims=True)
        cloud = np.einsum("ma,mb->mab", cloud, veronese_coeffs(forms, d))
        cloud = cloud.reshape(20000, -1)
    points = rng.standard_normal((4, space.ambient_dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    search = np.max(np.abs(points @ cloud.T), axis=1)
    batch = max_correlation_batch(space, points)
    assert np.all(batch >= search - 1e-12)
    for row, floor in zip(points, search):
        f = Tensor(space, row)
        res = rank_one_distance(f)
        assert res.correlation >= floor - 1e-12
        assert abs(bw_inner(embed(res.point), f) - res.correlation) <= 1e-12


def test_batch_has_no_row_cap():
    space = SpaceSpec((1,), (3,))
    points = np.random.default_rng(19).standard_normal((25000, 4))
    out = max_correlation_batch(space, points)
    assert out.shape == (25000,)
    assert np.all((out > 0.0) & (out <= np.linalg.norm(points, axis=1)))
    hopm = _best_rank_one(space, points[:50], 40, 500)[0]
    assert np.allclose(out[:50], hopm, rtol=0.0, atol=1e-12)


def _random_rank_one_search(space, points, size, rng):
    """max |<row, x>| over `size` random unit rank-one x, per row."""
    best = np.zeros(points.shape[0])
    for _ in range(size // 5000):
        cloud = np.ones((5000, 1))
        for n, d in zip(space.dims, space.degrees):
            forms = rng.standard_normal((5000, n + 1))
            forms /= np.linalg.norm(forms, axis=1, keepdims=True)
            cloud = np.einsum("ma,mb->mab", cloud,
                              veronese_coeffs(forms, d)).reshape(5000, -1)
        best = np.maximum(best, np.max(np.abs(points @ cloud.T), axis=1))
    return best


@pytest.mark.parametrize("dims,degrees", BINARY_SPACES)
def test_binary_paths_are_not_below_search_or_hopm(dims, degrees):
    space = SpaceSpec(dims, degrees)
    rng = np.random.default_rng(22)
    points = rng.standard_normal((2000, space.ambient_dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    got = max_correlation_batch(space, points)
    assert np.all(got >= _best_rank_one(space, points, 40, 500)[0] - 1e-14)
    assert np.all(got >= _random_rank_one_search(space, points, 100_000, rng)
                  - 1e-14)


@pytest.mark.parametrize("dims,degrees", BINARY_SPACES)
def test_binary_paths_return_the_norm_of_rank_one_rows(dims, degrees):
    space = SpaceSpec(dims, degrees)
    rng = np.random.default_rng(23)
    scales = rng.uniform(0.5, 2.0, 50)
    rows = np.stack([s * embed(random_segre_point(space, rng)).coeffs
                     for s in scales])
    got = max_correlation_batch(space, rows)
    assert np.all(np.abs(got - scales) <= 1e-14 * scales)


@pytest.mark.parametrize("dims,degrees", BINARY_SPACES)
def test_binary_paths_are_homogeneous_at_extreme_scales(dims, degrees):
    space = SpaceSpec(dims, degrees)
    points = np.random.default_rng(24).standard_normal((50, space.ambient_dim))
    base = max_correlation_batch(space, points)
    for scale in (1e-200, 1e200):
        got = max_correlation_batch(space, scale * points) / scale
        assert np.all(np.abs(got - base) <= 1e-14 * base)


def _pencil_scan(t):
    """max over theta of the top singular value of the pencil
    cos(theta) t[0] + sin(theta) t[1], per (2, a, b) array t of a batch:
    LAPACK's svd on 720 angles in [0, pi), then 60 golden-section steps
    around the best of them."""
    def top(theta):
        cos, sin = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
        return np.linalg.svd(cos * t[:, None, 0] + sin * t[:, None, 1],
                             compute_uv=False)[..., 0]

    grid = np.linspace(0.0, math.pi, 720, endpoint=False)
    values = top(np.broadcast_to(grid, (t.shape[0], grid.size)))
    step = grid[1]
    lo = grid[np.argmax(values, axis=1)][:, None] - step
    hi = lo + 2.0 * step
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
        left = top(a) > top(b)
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
    return np.maximum(np.max(values, axis=1), top(lo)[:, 0])


@pytest.mark.parametrize("m", [1, 3])
def test_degenerate_pencils_are_not_below_hopm_or_a_scan(m):
    # Rows of (1,1,m)/(1,1,1) as pencils t[0], t[1] of 2 x (m + 1)
    # matrices: t[1] = 0, and orthogonal pencils U (I, cJ) V, J the quarter
    # turn, turned by a random angle in the first factor, on which
    # s_1 = s_2 at every angle with an amplitude that varies unless c = 1;
    # then the same pencils with noise of 1e-9 and 1e-6.
    space = SpaceSpec((1, 1, m), (1, 1, 1))
    rng = np.random.default_rng(25)
    count = 150
    flat = rng.standard_normal((count, 2, 2 * (m + 1)))
    flat[:, 1] = 0.0
    u = np.linalg.qr(rng.standard_normal((count, 2, 2)))[0]
    v = np.swapaxes(np.linalg.qr(rng.standard_normal((count, m + 1, 2)))[0],
                    1, 2)
    c = rng.uniform(0.2, 3.0, (count, 1, 1))
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    t0, t1 = u @ v, c * (u @ quarter @ v)
    turn = rng.uniform(0.0, 2.0 * math.pi, (count, 1, 1))
    cos, sin = np.cos(turn), np.sin(turn)
    pencils = np.stack([cos * t0 - sin * t1, sin * t0 + cos * t1],
                       axis=1).reshape(count, -1)
    rows = np.concatenate(
        [flat.reshape(count, -1), pencils]
        + [pencils + s * rng.standard_normal(pencils.shape)
           for s in (1e-9, 1e-6)])
    got = max_correlation_batch(space, rows)
    assert np.all(got >= _best_rank_one(space, rows, 40, 500)[0] - 1e-14)
    # Alternating maximization converges slowly where s_1 = s_2 and stops
    # up to 7e-7 low on these rows, so the scan is the sharper floor.
    assert np.all(got >= _pencil_scan(rows.reshape(-1, 2, 2, m + 1)) - 1e-14)


def test_rank_one_distance_flags_non_convergence(monkeypatch):
    monkeypatch.setattr(manifold, "DISTANCE_SWEEPS", 1)
    space = SpaceSpec((1, 1), (2, 3))
    f = gaussian_tensor(space, 99)
    f = Tensor(space, f.coeffs / f.norm)
    res = rank_one_distance(f)
    assert res.converged is False
    assert 0.0 <= res.distance <= math.pi / 2


def test_flat_complement_membership():
    space = SpaceSpec((1,), (3,))
    split = normal_split(space)
    flat = np.zeros(space.ambient_dim)
    flat[-1] = 1.0  # drops the leading exponent by three
    assert split.in_flat_complement(Tensor(space, flat))
    assert not split.in_flat_complement(
        Tensor(space, np.eye(space.ambient_dim)[split.w_indices[0]]))


def _nan_tensor(space):
    coeffs = np.zeros(space.ambient_dim)
    coeffs[0] = math.nan
    return Tensor(space, coeffs)


_NAN_CALLS = {
    "rank_one_distance": lambda: rank_one_distance(
        _nan_tensor(SpaceSpec((1, 1), (2, 1)))),
    "angular_distance": lambda: angular_distance(
        _nan_tensor(SpaceSpec((1,), (2,))), embed(base_point(SpaceSpec((1,), (2,))))),
    "curvature_closed_form": lambda: curvature_closed_form([math.nan], [2]),
    "SegrePoint": lambda: SegrePoint(SpaceSpec((1,), (2,)), ([math.nan, 1.0],)),
}


@pytest.mark.parametrize("name", sorted(_NAN_CALLS))
def test_unit_norm_checks_reject_nan(name):
    # abs(nan - 1) > tol is False, so each check is written to fail on NaN.
    with pytest.raises(DomainError):
        _NAN_CALLS[name]()
