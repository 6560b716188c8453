import math

import numpy as np
import pytest
from scipy import stats

from svgeom import DomainError, SpaceSpec, variance_profile
from svgeom.bw_algebra import Tensor, gaussian_tensor
from svgeom.manifold import normal_split
from svgeom.weingarten import (
    _assembly_plan,
    assemble_batch,
    assemble_normals,
    assemble_weingarten,
    curved_normal_dim,
    gaussian_weingarten_batch,
    principal_minor_sums_batch,
    sample_block_matrix_batch,
    sample_gaussian_weingarten,
    second_fundamental_form_fd,
)

from oracles import principal_minor_sum


def normal_gaussian(space, seed, unit=False):
    """Gaussian tensor with the base and tangent coordinates removed."""
    split = normal_split(space)
    t = gaussian_tensor(space, seed)
    c = t.coeffs.copy()
    c[split.base_index] = 0.0
    c[split.tangent_indices] = 0.0
    if unit:
        c /= np.linalg.norm(c)
    return Tensor(space, c)


# ---------------------------------------------------------------------------
# single-factor operator
# ---------------------------------------------------------------------------

def test_flat_direction_gives_zero():
    space = SpaceSpec((1,), (3,))
    f = Tensor(space, [0.0, 0.0, 0.0, 1.0])  # drops the x0-exponent by three
    assert np.array_equal(assemble_weingarten(f).entries, [[0.0]])


def test_quadratic_example():
    space = SpaceSpec((1,), (2,))
    f = Tensor(space, [0.0, 0.0, 1.0])
    assert assemble_weingarten(f).entries[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_linearity_exact():
    space = SpaceSpec((2,), (3,))
    f = normal_gaussian(space, 21)
    double = Tensor(space, 2.0 * f.coeffs)
    assert np.array_equal(assemble_weingarten(double).entries,
                          2.0 * assemble_weingarten(f).entries)


def test_degree_one_factor_is_zero_map():
    space = SpaceSpec((2,), (1,))
    f = normal_gaussian(space, 22)
    assert np.array_equal(assemble_weingarten(f).entries, np.zeros((2, 2)))


def test_rejects_non_normal_input():
    space = SpaceSpec((1,), (2,))
    with pytest.raises(DomainError):
        assemble_weingarten(Tensor(space, [1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        assemble_weingarten(Tensor(space, [0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# assembled block structure
# ---------------------------------------------------------------------------

def test_flat_part_contributes_nothing():
    space = SpaceSpec((1, 1), (2, 2))
    split = normal_split(space)
    f = normal_gaussian(space, 23)
    c = f.coeffs.copy()
    rng = np.random.default_rng(1)
    curved = np.concatenate((split.w_indices, split.g_indices))
    flat_only = np.zeros_like(c)
    mask = np.ones_like(c, dtype=bool)
    mask[curved] = False
    mask[split.base_index] = False
    mask[split.tangent_indices] = False
    flat_only[mask] = rng.standard_normal(int(np.sum(mask)))
    assert np.array_equal(
        assemble_weingarten(Tensor(space, flat_only)).entries,
        np.zeros((2, 2)))


def test_segre_layout_zero_diagonal_blocks():
    space = SpaceSpec((2, 2, 1, 1), (1, 1, 1, 1))
    mat = assemble_weingarten(normal_gaussian(space, 24)).entries
    assert np.array_equal(mat[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(mat[2:4, 2:4], np.zeros((2, 2)))
    assert mat[4, 4] == 0.0 and mat[5, 5] == 0.0
    assert np.any(mat[:2, 2:4] != 0)


def test_cross_basis_vector_hits_two_entries():
    space = SpaceSpec((2, 2, 1, 1), (1, 1, 1, 1))
    split = normal_split(space)
    label_pos = split.g_labels.index(((0, 1), (1, 1)))
    f = Tensor(space, np.eye(space.ambient_dim)[split.g_indices[label_pos]])
    mat = assemble_weingarten(f).entries
    expected = np.zeros((6, 6))
    expected[0, 2] = expected[2, 0] = 1.0
    assert np.array_equal(mat, expected)


def test_assembled_matrix_is_symmetric():
    space = SpaceSpec((2, 1), (3, 2))
    mat = assemble_weingarten(normal_gaussian(space, 25)).entries
    assert np.array_equal(mat, mat.T)


def test_diagonal_block_matches_single_factor_operator():
    space = SpaceSpec((2, 1), (3, 2))
    split = normal_split(space)
    f = normal_gaussian(space, 26)
    mat = assemble_weingarten(f).entries
    # Restrict the normal tensor to the first factor's degree-drop block.
    factor = SpaceSpec((2,), (3,))
    fac_split = normal_split(factor)
    coeffs = np.zeros(factor.ambient_dim)
    for pos, (i, pair) in enumerate(split.w_labels):
        if i == 0:
            fac_pos = fac_split.w_labels.index((0, pair))
            coeffs[fac_split.w_indices[fac_pos]] = f.coeffs[split.w_indices[pos]]
    single = assemble_weingarten(Tensor(factor, coeffs)).entries
    assert np.allclose(mat[:2, :2], single, atol=1e-14)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_deterministic():
    space = SpaceSpec((1, 1), (2, 1))
    a = sample_gaussian_weingarten(space, 7).entries
    b = sample_gaussian_weingarten(space, 7).entries
    assert np.array_equal(a, b)


def test_assembled_sampler_rejects_a_profile():
    # The assembled operator has no variance profile, so one passed with it
    # would be ignored.
    space = SpaceSpec((2,), (2,))
    profile = variance_profile("def-d", space.degrees)
    with pytest.raises(DomainError, match="direct"):
        sample_gaussian_weingarten(space, 3, "assemble", profile)


def test_segre_samples_have_zero_diagonal_blocks():
    space = SpaceSpec((2, 2), (1, 1))
    mats = gaussian_weingarten_batch(space, np.random.default_rng(0), 100)
    assert np.all(mats[:, :2, :2] == 0)
    assert np.all(mats[:, 2:, 2:] == 0)


def test_assembled_entry_variances_degree_three():
    # sqrt((d-1)/d) scaling: off-diagonal variance (d-1)/d, diagonal twice that.
    space = SpaceSpec((2,), (3,))
    mats = gaussian_weingarten_batch(space, np.random.default_rng(1), 100_000)
    off = mats[:, 0, 1]
    diag = mats[:, 0, 0]
    se = math.sqrt(2.0 / off.size)
    assert abs(np.var(off, ddof=1) - 2.0 / 3.0) <= 3 * se * (2.0 / 3.0)
    assert abs(np.var(diag, ddof=1) - 4.0 / 3.0) <= 3 * se * (4.0 / 3.0)


def test_two_sampling_paths_agree_in_distribution():
    space = SpaceSpec((2,), (3,))
    rng = np.random.default_rng(2)
    assembled = np.linalg.det(gaussian_weingarten_batch(space, rng, 10_000))
    profile = variance_profile("weingarten", space.degrees)
    direct = np.linalg.det(
        sample_block_matrix_batch(space.dims, profile, rng, 10_000))
    assert stats.ks_2samp(assembled, direct).pvalue > 0.001


def test_mismatched_profile_fails_ks():
    space = SpaceSpec((2,), (3,))
    rng = np.random.default_rng(3)
    assembled = np.linalg.det(gaussian_weingarten_batch(space, rng, 10_000))
    profile = variance_profile("def-d", space.degrees)
    direct = np.linalg.det(
        sample_block_matrix_batch(space.dims, profile, rng, 10_000))
    assert stats.ks_2samp(assembled, direct).pvalue < 1e-6


def test_direct_sampler_profile_scales():
    # corollary profile: off-diagonal variance d(d-1)/4.
    profile = variance_profile("corollary", (3,))
    mats = sample_block_matrix_batch((2,), profile, np.random.default_rng(4),
                                     50_000)
    var = float(np.var(mats[:, 0, 1], ddof=1))
    assert abs(var - 1.5) <= 4 * 1.5 * math.sqrt(2.0 / 50_000)


def test_direct_sampler_is_exactly_symmetric():
    profile = variance_profile("weingarten", (2, 1, 3))
    mats = sample_block_matrix_batch((2, 0, 3), profile,
                                     np.random.default_rng(5), 1000)
    assert mats.shape == (1000, 5, 5)
    assert np.array_equal(mats, np.swapaxes(mats, 1, 2))


@pytest.mark.parametrize("name", ["def-d", "weingarten", "corollary"])
def test_direct_sampler_entry_variances(name):
    profile = variance_profile(name, (2, 1, 3))
    count = 40_000
    mats = sample_block_matrix_batch((2, 0, 3), profile,
                                     np.random.default_rng(6), count)
    group = (0, 0, 2, 2, 2)
    for i in range(5):
        for j in range(i, 5):
            if group[i] != group[j]:
                want = 1.0
            elif i == j:
                want = 2.0 * float(profile.within_offdiag[group[i]])
            else:
                want = float(profile.within_offdiag[group[i]])
            var = float(np.var(mats[:, i, j], ddof=1))
            assert abs(var - want) <= 5 * want * math.sqrt(2.0 / count)


def test_direct_sampler_draws_only_the_upper_triangle():
    profile = variance_profile("corollary", (2, 1, 3))
    rng = np.random.default_rng(7)
    sample_block_matrix_batch((2, 0, 3), profile, rng, 300)
    expected = np.random.default_rng(7)
    expected.standard_normal(300 * 5 * 6 // 2)
    assert rng.bit_generator.state == expected.bit_generator.state


def _drawn_upper_entries(sizes, profile):
    """(row, col, standard deviation) of every upper entry of positive
    variance, row-major, from the profile's definition."""
    group = [k for k, size in enumerate(sizes) for _ in range(size)]
    out = []
    for i in range(len(group)):
        for j in range(i, len(group)):
            if group[i] != group[j]:
                var = 1.0
            else:
                var = float(profile.within_offdiag[group[i]]) * (
                    2.0 if i == j else 1.0)
            if var > 0.0:
                out.append((i, j, math.sqrt(var)))
    return out


@pytest.mark.parametrize("sizes,degrees,name,drawn", [
    ((2, 2, 1, 1), (1, 1, 1, 1), "def-d", 13),
    ((2, 2, 1, 1), (1, 1, 1, 1), "weingarten", 13),
    ((2, 2, 1, 1), (1, 1, 1, 1), "corollary", 13),
    ((3, 3), (2, 1), "def-d", 15)])
def test_direct_sampler_draws_exactly_the_positive_variance_entries(
        sizes, degrees, name, drawn):
    # Every profile gives the diagonal blocks of degree-one groups variance
    # 0: those entries are exactly 0.0 and take no normal, and each drawn
    # entry is its standard deviation times the next normal of one flat
    # draw of drawn x count, one row per entry.
    profile = variance_profile(name, degrees)
    count = 300
    rng = np.random.default_rng(8)
    mats = sample_block_matrix_batch(sizes, profile, rng, count)
    entries = _drawn_upper_entries(sizes, profile)
    assert len(entries) == drawn
    reference = np.random.default_rng(8)
    normals = reference.standard_normal((drawn, count))
    assert rng.standard_normal(5).tolist() == \
        reference.standard_normal(5).tolist()
    want = np.zeros_like(mats)
    for (i, j, std), row in zip(entries, normals):
        want[:, i, j] = want[:, j, i] = std * row
    assert want.tobytes() == np.ascontiguousarray(mats).tobytes()
    group = np.repeat(np.arange(len(sizes)), sizes)
    for k, degree in enumerate(degrees):
        block = mats[:, group == k][:, :, group == k]
        if degree == 1:
            assert np.all(block == 0.0)
        else:                          # the degree-2 block's diagonal too
            assert np.all(np.diagonal(block, axis1=1, axis2=2) != 0.0)


def _fancy_index_assembly(space, w, g):
    """The (count, row, col) fancy-index scatter that assemble_batch
    replaced, kept as its reference."""
    w_rows, w_cols, w_scales, g_rows, g_cols = _assembly_plan(space)
    n = space.manifold_dim
    mats = np.zeros((w.shape[0], n, n))
    if w_rows.size:
        scaled = w * w_scales
        mats[:, w_rows, w_cols] = scaled
        mats[:, w_cols, w_rows] = scaled
    if g_rows.size:
        mats[:, g_rows, g_cols] = g
        mats[:, g_cols, g_rows] = g
    return mats


# Every space tests/test_montecarlo.py and this file assemble.
ASSEMBLED_SPACES = (
    ((1,), (3,)), ((1,), (2,)), ((2,), (3,)), ((2,), (1,)), ((1, 1), (2, 2)),
    ((2, 2, 1, 1), (1, 1, 1, 1)), ((2, 1), (3, 2)), ((1, 1), (2, 1)),
    ((2,), (2,)), ((2, 2), (1, 1)), ((2, 1), (2, 1)), ((2, 1), (1, 3)),
    ((3, 3), (2, 2)))


@pytest.mark.parametrize("dims,degrees", ASSEMBLED_SPACES)
@pytest.mark.parametrize("count", [1, 7, 8192])
def test_assemble_batch_equals_the_fancy_index_scatter_bit_for_bit(
        dims, degrees, count):
    space = SpaceSpec(dims, degrees)
    normals = np.random.default_rng(count).standard_normal(
        count * curved_normal_dim(space))
    cut = count * _assembly_plan(space)[0].size
    w, g = normals[:cut].reshape(count, -1), normals[cut:].reshape(count, -1)
    got = assemble_batch(space, w, g)
    want = _fancy_index_assembly(space, w, g)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert assemble_normals(space, normals, count).tobytes() == \
        want.tobytes()
    # Minor sums see the same C-ordered batch, so they agree bit for bit.
    k = min(2, space.manifold_dim)
    assert principal_minor_sums_batch(got, k).tobytes() == \
        principal_minor_sums_batch(want, k).tobytes()


# ---------------------------------------------------------------------------
# principal minors
# ---------------------------------------------------------------------------

def test_minor_sum_base_cases():
    mat = np.diag([2.0, 3.0])
    assert principal_minor_sum(mat, 0) == 1.0
    assert principal_minor_sum(mat, 2) == pytest.approx(6.0)


def test_minor_sums_match_characteristic_polynomial():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    sym = (a + a.T) / 2.0
    for t in (1.0, 2.0):
        direct = float(np.linalg.det(np.eye(5) + t * sym))
        series = sum(principal_minor_sum(sym, k) * t ** k for k in range(6))
        assert abs(series - direct) <= 1e-9 * abs(direct)


def test_batched_minor_sums_match_direct():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((7, 4, 4))
    mats = (a + np.swapaxes(a, 1, 2)) / 2.0
    for k in range(5):
        batch = principal_minor_sums_batch(mats, k)
        for row, got in zip(mats, batch):
            assert got == pytest.approx(principal_minor_sum(row, k), abs=1e-9)


def _eigenvalue_minor_sums(mats):
    """e_0..e_n of each matrix's eigenvalues, read off its characteristic
    polynomial prod_j (x - lambda_j) = sum_k (-1)^k e_k x^(n - k)."""
    lam = np.linalg.eigvalsh(mats)
    signs = (-1.0) ** np.arange(lam.shape[1] + 1)
    return np.array([np.poly(row) for row in lam]) * signs


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 24])
def test_batched_minor_sums_match_eigenvalue_oracle(n):
    """Both routes of principal_minor_sums_batch on 2,000 GOE matrices.

    Power sums hold 1e-9 of the sample standard deviation up to k = 12.  Above it the
    library expands the same eigenvalues as the oracle, so the two agree to
    rounding, which a power-sum route past k = 12 misses at k = 14."""
    rng = np.random.default_rng(300 + n)
    a = rng.standard_normal((2000, n, n))
    mats = (a + np.swapaxes(a, 1, 2)) / math.sqrt(2.0)
    oracle = _eigenvalue_minor_sums(mats)
    assert principal_minor_sums_batch(mats, 0).tolist() == [1.0] * 2000
    for k in range(2, n + 1, 2):
        got = principal_minor_sums_batch(mats, k)
        spread = float(np.std(oracle[:, k]))
        tol = 1e-9 if k <= 12 else 1e-12
        assert np.max(np.abs(got - oracle[:, k])) <= tol * spread, k
        if n <= 6:
            brute = [principal_minor_sum(m, k) for m in mats[:50]]
            assert np.max(np.abs(got[:50] - brute)) <= 1e-9 * spread, k


def test_minor_sum_rejects_bad_order():
    with pytest.raises(DomainError):
        principal_minor_sum(np.eye(2), 3)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_zero_for_flat_direction():
    space = SpaceSpec((1,), (3,))
    f = Tensor(space, [0.0, 0.0, 0.0, 1.0])
    assert abs(second_fundamental_form_fd(space, [1.0], f)) <= 1e-6


def test_fd_quadratic_example():
    space = SpaceSpec((1,), (2,))
    f = Tensor(space, [0.0, 0.0, 1.0])
    got = second_fundamental_form_fd(space, [1.0], f)
    assert got == pytest.approx(1.0, abs=1e-6)


def test_fd_matches_quadratic_form():
    space = SpaceSpec((2, 1), (2, 1))
    rng = np.random.default_rng(7)
    for _ in range(25):
        v = rng.standard_normal(space.manifold_dim)
        v /= np.linalg.norm(v)
        f = normal_gaussian(space, int(rng.integers(2 ** 31)), unit=True)
        lhs = second_fundamental_form_fd(space, v, f)
        rhs = float(v @ assemble_weingarten(f).entries @ v)
        assert lhs == pytest.approx(rhs, abs=1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_normal_is_rejected(bad):
    # The bad entry sits in the W block, past the orthogonality test.
    space = SpaceSpec((1,), (2,))
    f = Tensor(space, [0.0, 0.0, bad])
    with pytest.raises(DomainError, match="finite"):
        assemble_weingarten(f)
    with pytest.raises(DomainError, match="finite"):
        second_fundamental_form_fd(space, [1.0], f)


def test_mixed_degrees_zero_only_degree_one_block():
    space = SpaceSpec((2, 1), (1, 3))
    mat = assemble_weingarten(normal_gaussian(space, 27)).entries
    assert np.array_equal(mat[:2, :2], np.zeros((2, 2)))
    assert mat[2, 2] != 0.0
