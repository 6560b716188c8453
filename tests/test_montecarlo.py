import ast
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from svgeom import (
    DomainError,
    MatchingProblem,
    McConfig,
    ResourceError,
    SpaceSpec,
    expected_minor_sum,
    matching_determinant,
    mc_expected_det,
    mc_minor_sum,
    mc_tube_volume,
    tube_volume,
    variance_profile,
)
import svgeom
from svgeom import montecarlo, weingarten
from svgeom.montecarlo import (
    BATCH_SIZE,
    RING_SLOTS,
    _TAILS,
    _batch_counts,
    _determinants,
    _draw,
    _hits,
    _make_histogram,
    _mean_and_error,
)
from svgeom.tube import sphere_volume
from svgeom.weingarten import (
    PROFILE_NAMES,
    gaussian_weingarten_batch,
    principal_minor_sums_batch,
    sample_block_matrix_batch,
)


def _batch_streams(cfg):
    """The sequential reference: a (generator, batch size) pair per batch,
    in order, each generator seeded with (seed, batch index)."""
    for index, count in enumerate(_batch_counts(cfg.samples)):
        yield np.random.default_rng([cfg.seed, index]), count


# ---------------------------------------------------------------------------
# determinism and error scaling
# ---------------------------------------------------------------------------

def test_same_seed_determinism():
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    cfg = McConfig(20_000, seed=3)
    a = mc_expected_det(p, cfg)
    b = mc_expected_det(p, cfg)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert np.array_equal(a.histogram.counts, b.histogram.counts)


def test_different_seeds_differ():
    p = MatchingProblem((1, 1), (1, 1))
    a = mc_expected_det(p, McConfig(1_000, seed=1))
    b = mc_expected_det(p, McConfig(1_000, seed=2))
    assert a.mean != b.mean


def test_standard_error_scaling():
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    small = mc_expected_det(p, McConfig(1_000, seed=5))
    large = mc_expected_det(p, McConfig(100_000, seed=5))
    ratio = small.std_error / large.std_error
    assert 8.0 <= ratio <= 12.0


def test_config_validation():
    with pytest.raises(DomainError):
        McConfig(0)
    with pytest.raises(DomainError):
        McConfig(10, seed=-1)


@pytest.mark.parametrize("kwargs", [
    {"samples": 2.5}, {"samples": 1000.0}, {"samples": True},
    {"samples": "10"}, {"samples": 10, "seed": True},
    {"samples": 10, "seed": 1.0}])
def test_config_rejects_non_integers(kwargs):
    # Unchecked, a float count failed later in the sampler with a bare
    # TypeError, and True ran one sample.
    with pytest.raises(DomainError, match="integer"):
        McConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = McConfig(np.int64(10), seed=np.int32(3))
    assert mc_expected_det(MatchingProblem((1, 1), (1, 1)), cfg).samples == 10


def test_config_output_is_keyword_only():
    # A third positional argument must not be taken as an output path,
    # where an integer would be opened as a file descriptor.
    with pytest.raises(TypeError):
        McConfig(100, 1, 4)


def test_no_estimator_takes_an_output_path(tmp_path):
    # The CSV is written by the caller, with stats.histogram.to_csv.
    assert not hasattr(McConfig(10), "output")
    with pytest.raises(TypeError):
        McConfig(10, output="ignored.csv")
    path = tmp_path / "h.csv"
    with pytest.raises(TypeError):
        mc_expected_det(MatchingProblem((1, 1), (1, 1)), McConfig(10),
                        output=path)
    assert not path.exists()


def test_histogram_is_built_on_its_first_read(monkeypatch):
    calls = []

    def spy(values):
        calls.append(values)
        return _make_histogram(values)

    monkeypatch.setattr(montecarlo, "_make_histogram", spy)
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    stats = mc_expected_det(p, McConfig(20_000, seed=3))
    assert calls == []
    hist = stats.histogram
    assert len(calls) == 1 and calls[0] is stats.determinants
    assert stats.histogram is hist
    assert len(calls) == 1


def test_expected_det_keeps_its_determinants():
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    stats = mc_expected_det(p, McConfig(10_000, seed=9))
    assert stats.determinants.shape == (10_000,)
    assert stats.determinants.dtype == np.float64
    assert (stats.mean, stats.std_error) == \
        _mean_and_error(stats.determinants)


def test_minor_sum_has_no_histogram():
    stats = mc_minor_sum(SpaceSpec((2, 2), (1, 1)), 1, McConfig(2_000, 4))
    assert stats.determinants is None
    assert stats.histogram is None


# ---------------------------------------------------------------------------
# expected determinants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes,degrees", [((2, 2, 1, 1), (1, 1, 1, 1)),
                                           ((1, 1), (1, 1)), ((2,), (3,))])
def test_det_mean_matches_matching_sum(sizes, degrees):
    for name in PROFILE_NAMES:
        profile = variance_profile(name, degrees)
        p = MatchingProblem(sizes, degrees, profile)
        stats = mc_expected_det(p, McConfig(40_000, seed=11))
        assert abs(stats.mean - matching_determinant(p)) <= 3 * stats.std_error


def test_det_mean_odd_size_near_zero():
    p = MatchingProblem((2, 1), (1, 1))
    stats = mc_expected_det(p, McConfig(20_000, seed=12))
    assert abs(stats.mean) <= 3 * stats.std_error


def test_det_proof_variance_case():
    p = MatchingProblem((2,), (3,))  # within-group weight 6
    stats = mc_expected_det(p, McConfig(50_000, seed=13))
    assert abs(stats.mean + 6.0) <= 3 * stats.std_error


def _hard_batch(n, rng):
    """600 random n x n matrices, as an (n, n, 600) array, among them
    matrices with a zero column, a repeated column, a row that is a
    combination of two others, and the zero matrix."""
    a = rng.standard_normal((n, n, 600))
    a[:, 0, 100:150] = 0.0
    a[:, n - 1, 150:200] = 0.0
    a[:, :, 500:510] = 0.0
    if n >= 2:
        a[:, n - 1, 200:300] = a[:, 0, 200:300]
        a[n - 1, :, 300:400] = a[0, :, 300:400] * rng.standard_normal(100)
    if n >= 3:
        a[1, :, 400:500] = 2.0 * a[0, :, 400:500] - a[2, :, 400:500]
    return a


@pytest.mark.parametrize("n", range(1, 13))
def test_determinants_match_lapack(n):
    # Hadamard's bound prod_j |a_j| on |det a| sets the scale of the
    # rounding error; singular rows must come out within it of 0.
    a = _hard_batch(n, np.random.default_rng(40 + n))
    want = np.linalg.det(np.moveaxis(a, -1, 0))
    bound = np.prod(np.linalg.norm(a, axis=0), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _determinants(a.copy())
    assert np.all(np.abs(got - want) <= 1e-13 * bound)
    assert np.all(got[500:510] == 0.0)


@pytest.mark.parametrize("sizes,degrees,profile", [
    ((2, 2, 1, 1), (1, 1, 1, 1), "weingarten"),
    ((3, 3), (2, 1), "def-d")])
def test_expected_det_equals_lapack_on_the_same_streams(sizes, degrees,
                                                          profile):
    p = MatchingProblem(sizes, degrees, variance_profile(profile, degrees))
    cfg = McConfig(20_000, seed=7)
    stats = mc_expected_det(p, cfg)
    want = np.concatenate([
        np.linalg.det(sample_block_matrix_batch(sizes, p.profile, rng, count))
        for rng, count in _batch_streams(cfg)])
    mean, std_error = _mean_and_error(want)
    assert abs(stats.mean - mean) <= 1e-12 * abs(mean)
    assert abs(stats.std_error - std_error) <= 1e-12 * std_error
    assert np.array_equal(stats.histogram.counts,
                          _make_histogram(want).counts)


def test_histogram_csv_format(tmp_path):
    path = tmp_path / "hist.csv"
    p = MatchingProblem((1, 1), (1, 1))
    stats = mc_expected_det(p, McConfig(5_000, seed=14))
    stats.histogram.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 101
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) <= 5_000
    assert sum(counts) >= 4_900  # only the extreme tails are clipped
    assert stats.histogram is not None


def test_expected_det_writes_its_histogram(tmp_path):
    path = tmp_path / "hist.csv"
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    stats = mc_expected_det(p, McConfig(2_000, seed=22))
    stats.histogram.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(row[2]) for row in rows] == stats.histogram.counts.tolist()
    assert [float(row[0]) for row in rows] == \
        stats.histogram.bin_edges[:-1].tolist()


def _tail_cases():
    rng = np.random.default_rng(23)
    return {
        "normal-20001": rng.standard_normal(20_001),
        "cauchy-8193": rng.standard_cauchy(8_193),
        "normal-3": rng.standard_normal(3),
        "tied": np.round(rng.standard_normal(5_000)),
        "few-ties": np.repeat([-2.0, 0.5, 3.0], [1, 3000, 2]),
        "constant": np.full(100, 1.25),
        "negative-zeros": np.full(9, -0.0),
        "signed-zeros": np.array([0.0, -0.0, -0.0, 0.0]),
        "length-1": np.array([-3.5]),
        "length-1-negative-zero": np.array([-0.0]),
        "length-2": np.array([2.0, -1.0]),
        "length-2-tied": np.array([0.0, -0.0]),
    }


@pytest.mark.parametrize("name", sorted(_tail_cases()))
def test_histogram_edges_equal_numpy_quantiles_bit_for_bit(name):
    values = _tail_cases()[name]
    before = values.copy()
    lo, hi = np.quantile(values, _TAILS)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=100,
                                 range=(float(lo), float(hi)))
    hist = _make_histogram(values)
    assert values.tobytes() == before.tobytes()
    assert hist.bin_edges.tobytes() == edges.tobytes()
    assert np.array_equal(hist.counts, counts)


# ---------------------------------------------------------------------------
# minor sums
# ---------------------------------------------------------------------------

def test_minor_sum_index_zero_is_exactly_one():
    stats = mc_minor_sum(SpaceSpec((2, 2), (1, 1)), 0, McConfig(1_000, seed=15))
    assert stats.mean == 1.0
    assert stats.std_error == 0.0


def test_minor_sum_matches_corrected_formula():
    space = SpaceSpec((2,), (2,))
    stats = mc_minor_sum(space, 1, McConfig(50_000, seed=16))
    profile = variance_profile("weingarten", space.degrees)
    expected = expected_minor_sum(space, 1, profile, "corrected")
    assert expected == pytest.approx(-0.5, abs=1e-14)
    assert abs(stats.mean - expected) <= 3 * stats.std_error


def test_minor_sum_segre_2_2():
    stats = mc_minor_sum(SpaceSpec((2, 2), (1, 1)), 1, McConfig(30_000, seed=17))
    assert abs(stats.mean + 4.0) <= 3 * stats.std_error
    assert abs(stats.mean + 1.0) > 10 * stats.std_error


def test_minor_sum_range_check():
    with pytest.raises(DomainError):
        mc_minor_sum(SpaceSpec((1,), (2,)), 1, McConfig(10, seed=0))


# ---------------------------------------------------------------------------
# tube volumes
# ---------------------------------------------------------------------------

def test_tube_volume_v12():
    space = SpaceSpec((1,), (2,))
    est = mc_tube_volume(space, 0.3, McConfig(200_000, seed=18))
    expected = 4 * math.sqrt(2) * math.pi * math.sin(0.3)
    assert abs(est.volume - expected) <= 3 * est.std_error


def test_tube_volume_cross_oracle_segre():
    space = SpaceSpec((1, 1), (1, 1))
    est = mc_tube_volume(space, 0.2, McConfig(200_000, seed=19))
    expected = tube_volume(space, 0.2).volume
    assert abs(est.volume - expected) <= 3 * est.std_error


@pytest.mark.parametrize("dims", [(1, 3), (3, 1)])
@pytest.mark.parametrize("eps", [0.3, 0.6])
def test_tube_volume_matches_sin_two_eps_power(dims, eps):
    # On (1,m)/(1,1) the tube fills sin(2 eps)^m of the sphere for
    # eps <= pi/4, a random-matrix identity that does not use the tube
    # formula; (3,1) takes the Gram matrix on the other side.
    space = SpaceSpec(dims, (1, 1))
    est = mc_tube_volume(space, eps, McConfig(200_000, seed=23))
    expected = math.sin(2.0 * eps) ** 3 * sphere_volume(space.sphere_dim)
    assert abs(est.volume - expected) <= 4 * est.std_error


def test_tube_volume_reports_its_hit_count():
    for dims, degrees in (((1,), (2,)), ((2, 2), (1, 1)), ((1, 1), (2, 1))):
        est = mc_tube_volume(SpaceSpec(dims, degrees), 0.4,
                             McConfig(3000, seed=22))
        assert isinstance(est.hits, int) and 0 < est.hits < est.samples
        assert est.fraction == est.hits / est.samples


@pytest.mark.parametrize("eps,dims,degrees", [
    (0.4, (3,), (2,)), (0.4, (2, 2), (1, 1)), (0.4, (2,), (2,)),
    (0.4, (3, 2), (1, 1)), (0.25, (1,), (3,)), (0.25, (1, 1), (2, 1)),
    (0.45, (1, 1, 1), (1, 1, 1)), (0.4, (2, 1, 1), (1, 1, 1)),
    (0.4, (1, 3), (1, 1))])
def test_tube_hits_equal_a_normalized_row_reference(eps, dims, degrees):
    # The CI kernel spaces: Gaussian rows against cos(eps) times their
    # norms must hit exactly where the same rows, normalized, hit against
    # cos(eps).
    space = SpaceSpec(dims, degrees)
    cfg = McConfig(20_000, seed=42)
    want = 0
    for rng, count in _batch_streams(cfg):
        points = rng.standard_normal((count, space.ambient_dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        want += int(np.count_nonzero(_hits(space, points, math.cos(eps))))
    assert mc_tube_volume(space, eps, cfg).hits == want


def test_tube_at_right_angle_covers_sphere():
    # Every unit quadratic has best rank-one correlation >= 1/sqrt(2), so
    # the hit fraction saturates beyond the reach.
    space = SpaceSpec((1,), (2,))
    est = mc_tube_volume(space, math.pi / 2, McConfig(20_000, seed=20))
    assert est.fraction <= 1.0
    assert est.fraction == 1.0
    assert est.volume <= sphere_volume(2) + 1e-9


def test_tube_volume_guards():
    with pytest.raises(ResourceError):
        mc_tube_volume(SpaceSpec((3, 3), (2, 2)), 0.1, McConfig(10, seed=0))
    with pytest.raises(DomainError):
        mc_tube_volume(SpaceSpec((1,), (2,)), 0.0, McConfig(10, seed=0))


def test_tube_volume_generic_space_small_sample():
    # No vectorized path for this space; the generic optimizer handles it.
    space = SpaceSpec((1, 1), (2, 1))
    est = mc_tube_volume(space, 0.35, McConfig(600, seed=21))
    expected = tube_volume(space, 0.35,
                           profile=variance_profile("weingarten",
                                                    space.degrees)).volume
    assert abs(est.volume - expected) <= 4 * est.std_error


# ---------------------------------------------------------------------------
# batch streams: the in-order draw helper, its ring and fork
# ---------------------------------------------------------------------------

EDGE_SAMPLES = (1, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1,
                2 * BATCH_SIZE + 1)


def _sequential_hits(space, eps, cfg):
    # Draw and test one batch after the other.
    hits = 0
    for rng, count in _batch_streams(cfg):
        points = rng.standard_normal((count, space.ambient_dim))
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))
        hits += int(np.count_nonzero(_hits(space, points,
                                           math.cos(eps) * norms)))
    return hits


def _sequential_determinants(problem, cfg):
    return np.concatenate([
        _determinants(np.moveaxis(sample_block_matrix_batch(
            problem.group_sizes, problem.profile, rng, count), 0, -1))
        for rng, count in _batch_streams(cfg)])


def _sequential_minor_sums(space, i, cfg):
    return np.concatenate([
        principal_minor_sums_batch(
            gaussian_weingarten_batch(space, rng, count), 2 * i)
        for rng, count in _batch_streams(cfg)])


def _assert_det_stats_equal(stats, want):
    assert (stats.mean, stats.std_error) == _mean_and_error(want)
    assert np.array_equal(stats.histogram.counts,
                          _make_histogram(want).counts)


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
@pytest.mark.parametrize("eps,dims,degrees", [
    (0.3, (1,), (2,)), (0.4, (3,), (2,)), (0.4, (2, 2), (1, 1)),
    (0.3, (1,), (3,)), (0.3, (1, 1), (2, 1))])
def test_tube_hits_equal_a_sequential_reference(samples, eps, dims, degrees):
    # Batches are drawn ahead of the one being tested; the hits must equal
    # those of drawing and testing one batch after the other.
    space = SpaceSpec(dims, degrees)
    cfg = McConfig(samples, seed=5)
    assert mc_tube_volume(space, eps, cfg).hits == \
        _sequential_hits(space, eps, cfg)


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
@pytest.mark.parametrize("sizes,degrees,profile", [
    ((2, 2, 1, 1), (1, 1, 1, 1), "weingarten"),
    ((3, 3), (2, 1), "def-d"), ((1,), (2,), "corollary")])
def test_expected_det_equals_a_sequential_reference(samples, sizes, degrees,
                                                    profile):
    p = MatchingProblem(sizes, degrees, variance_profile(profile, degrees))
    cfg = McConfig(samples, seed=6)
    _assert_det_stats_equal(mc_expected_det(p, cfg),
                            _sequential_determinants(p, cfg))


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
@pytest.mark.parametrize("dims,degrees,i", [
    ((2, 2), (1, 1), 1), ((3, 3), (2, 2), 2), ((2,), (3,), 1)])
def test_minor_sum_equals_a_sequential_reference(samples, dims, degrees, i):
    space = SpaceSpec(dims, degrees)
    cfg = McConfig(samples, seed=7)
    stats = mc_minor_sum(space, i, cfg)
    assert (stats.mean, stats.std_error) == \
        _mean_and_error(_sequential_minor_sums(space, i, cfg))


def _all_estimators(samples):
    mc_tube_volume(SpaceSpec((1,), (3,)), 0.3, McConfig(samples, seed=8))
    mc_tube_volume(SpaceSpec((2, 2), (1, 1)), 0.4, McConfig(samples, seed=8))
    mc_expected_det(MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1)),
                    McConfig(samples, seed=8))
    mc_minor_sum(SpaceSpec((2, 2), (1, 1)), 1, McConfig(samples, seed=8))


def _record_threads(monkeypatch):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def test_only_calls_of_several_batches_start_threads(monkeypatch):
    started = _record_threads(monkeypatch)
    _all_estimators(BATCH_SIZE)
    assert started == []
    _all_estimators(2 * BATCH_SIZE + 1)
    # One helper per call, joined before the call returns.
    assert len(started) == 4
    assert not any(thread.is_alive() for thread in started)


class HeldHelper:
    """Stands in for `montecarlo._draw` during one estimator call.

    The helper's first draw waits until `release` is set, by a timer, so
    a caller that drew ahead of its helper would be seen drawing a batch
    after 0.
    """

    def __init__(self):
        self.caller = threading.get_ident()
        self.caller_draws = []
        self.helper_draws = []
        self.release = threading.Event()
        self.released = None

    def __call__(self, seed, index, out):
        if threading.get_ident() == self.caller:
            self.caller_draws.append(index)
        else:
            if not self.helper_draws:
                self.released = self.release.wait(30)
            self.helper_draws.append(index)
        _draw(seed, index, out)


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_the_helper_draws_every_later_batch_in_order(samples, monkeypatch):
    started = _record_threads(monkeypatch)
    batches = len(_batch_counts(samples))

    def held_call(estimate):
        held = HeldHelper()
        monkeypatch.setattr(montecarlo, "_draw", held)
        timer = threading.Timer(0.05, held.release.set)
        timer.start()
        try:
            result = estimate()
        finally:
            timer.cancel()
            timer.join()
        assert held.caller_draws == [0]
        assert held.helper_draws == list(range(1, batches))
        assert held.released is (True if batches > 1 else None)
        return result

    space = SpaceSpec((3,), (2,))
    cfg = McConfig(samples, seed=5)
    assert held_call(lambda: mc_tube_volume(space, 0.4, cfg)).hits == \
        _sequential_hits(space, 0.4, cfg)
    p = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    _assert_det_stats_equal(held_call(lambda: mc_expected_det(p, cfg)),
                            _sequential_determinants(p, cfg))
    space = SpaceSpec((3, 3), (2, 2))
    stats = held_call(lambda: mc_minor_sum(space, 2, cfg))
    assert (stats.mean, stats.std_error) == \
        _mean_and_error(_sequential_minor_sums(space, 2, cfg))
    assert len(started) == (3 if batches > 1 else 0)
    assert not any(thread.is_alive() for thread in started)


def _finishes_within(seconds, target):
    # On its own thread, so that a helper left waiting fails the test
    # instead of hanging it.
    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(seconds)
    return not caller.is_alive()


# (batches, failing batch): within the first ring, on the last batch of a
# call with fewer batches than RING_SLOTS, and on the last of six.
FAILURES = [(6, 2), (2, 1), (6, 5)]


@pytest.mark.parametrize("batches,failing_batch", FAILURES)
def test_a_helper_error_is_raised_in_the_caller(batches, failing_batch,
                                                monkeypatch):
    started = _record_threads(monkeypatch)
    hits = montecarlo._hits
    tested = []
    earlier_tested = threading.Event()

    def counted(*args):
        result = hits(*args)
        tested.append(len(tested))
        if len(tested) == failing_batch:
            earlier_tested.set()
        return result

    def failing(seed, index, out):
        # The batch fails only once the caller has tested every earlier
        # batch, so the caller is waiting for it, not about to see the
        # error.
        if index == failing_batch:
            earlier_tested.wait(30)
            raise RuntimeError(f"draw failed on batch {index}")
        _draw(seed, index, out)

    def call():
        with pytest.raises(RuntimeError, match=f"batch {failing_batch}"):
            mc_tube_volume(SpaceSpec((1,), (2,)), 0.3,
                           McConfig(batches * BATCH_SIZE, seed=10))
        done.append(True)

    monkeypatch.setattr(montecarlo, "_hits", counted)
    monkeypatch.setattr(montecarlo, "_draw", failing)
    done = []
    assert _finishes_within(60, call), "the call did not return within 60 s"
    assert done == [True]
    assert tested == list(range(failing_batch))
    assert len(started) == 2                 # the caller and its helper
    assert not any(thread.is_alive() for thread in started)


def test_the_helper_draws_no_further_ahead_than_the_ring(monkeypatch):
    # Batch k + RING_SLOTS fills batch k's slot, so while batch k's kernel
    # runs the helper must not have started a draw past
    # k + RING_SLOTS - 1, and batch k must still hold its own normals.
    cfg = McConfig(6 * BATCH_SIZE, seed=12)
    started = []
    kernels = []

    def recorded(seed, index, out):
        started.append(index)
        _draw(seed, index, out)

    def kernel(count, floats):
        k = len(kernels)
        kernels.append(k)
        time.sleep(0.2)                  # time for the helper to run ahead
        assert max(started) <= k + RING_SLOTS - 1
        want = np.random.default_rng([cfg.seed, k]).standard_normal(
            2 * count)
        assert np.array_equal(floats, want)

    monkeypatch.setattr(montecarlo, "_draw", recorded)
    montecarlo._estimate(cfg, 2, kernel)
    assert kernels == list(range(6))
    assert sorted(started) == list(range(6))


def test_calls_of_one_batch_leave_concurrent_futures_unimported():
    # concurrent.futures imports logging, which would cost every fresh
    # process, and so every CLI call, at startup.
    script = (
        "import sys\n"
        "from svgeom import McConfig, SpaceSpec, mc_minor_sum\n"
        "from svgeom.cli import main\n"
        "space = ['--dims', '2,2', '--degrees', '1,1', '--samples', '100']\n"
        "assert main(['mc-tube', '--epsilon', '0.3', *space]) == 0\n"
        "assert main(['mc-det', *space]) == 0\n"
        f"mc_minor_sum(SpaceSpec((2, 2), (1, 1)), 1, McConfig({BATCH_SIZE}))\n"
        "assert 'concurrent.futures' not in sys.modules\n")
    src = str(Path(svgeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_tube_call_leaves_no_blas_thread_spinning():
    # With two OpenBLAS threads, a BLAS call on a large batch wakes the
    # pool, whose worker then spins a core for about 0.1 s after it: a
    # tensordot in `_quadratic_forms` once burned 99.9 ms of CPU in the
    # 0.1 s sleep below.  (3,)/(2,) runs 20,000 samples in three batches.
    script = (
        "import time\n"
        "from svgeom import McConfig, SpaceSpec, mc_tube_volume\n"
        "time.sleep(0.3)\n"
        "mc_tube_volume(SpaceSpec((3,), (2,)), 0.4, McConfig(20_000, 3))\n"
        "start = time.process_time()\n"
        "time.sleep(0.1)\n"
        "print(time.process_time() - start)\n")
    src = str(Path(svgeom.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 0.02


@pytest.mark.parametrize("batches,failing_batch", FAILURES)
def test_a_kernel_error_stops_the_helper(batches, failing_batch, monkeypatch):
    started = _record_threads(monkeypatch)
    determinants = montecarlo._determinants
    run = []

    def failing(a):
        run.append(len(run))
        if run[-1] == failing_batch:
            raise RuntimeError(f"kernel failed on batch {failing_batch}")
        return determinants(a)

    def call():
        with pytest.raises(RuntimeError, match=f"batch {failing_batch}"):
            mc_expected_det(MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1)),
                            McConfig(batches * BATCH_SIZE, seed=10))
        done.append(True)

    monkeypatch.setattr(montecarlo, "_determinants", failing)
    done = []
    # On its own thread, so that a helper left waiting fails the test
    # instead of hanging it.
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "the call did not return within 60 s"
    assert done == [True]
    assert run == list(range(failing_batch + 1))
    assert len(started) == 2                 # the caller and its helper
    assert not any(thread.is_alive() for thread in started)


def test_concurrent_calls_under_fast_switching_keep_their_streams(
        monkeypatch):
    # Four callers, each with its own helper, on a box of fewer cores, and
    # the interpreter switching threads every 10 us: every batch must
    # still hold its own stream's normals, and every thread must finish.
    started = _record_threads(monkeypatch)
    cases = [(McConfig(7 * BATCH_SIZE + 5, seed=seed), per_sample)
             for seed, per_sample in ((1, 1), (2, 2), (3, 3), (4, 1))]
    wrong = []

    def check(cfg, per_sample):
        got = montecarlo._estimate(cfg, per_sample,
                                   lambda count, floats: floats.copy())
        want = [rng.standard_normal(count * per_sample)
                for rng, count in _batch_streams(cfg)]
        if len(got) != len(want) or \
                not all(map(np.array_equal, got, want)):
            wrong.append(cfg.seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=check, args=case)
                   for case in cases]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 2 * len(cases)      # the callers and helpers
    assert not any(thread.is_alive() for thread in started)
    assert wrong == []


def _spy_threads(monkeypatch, bindings):
    """Record, per binding name, the thread of every call."""
    idents = {}

    def spy(module, name):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            idents.setdefault(name, []).append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for module, name in bindings:
        spy(module, name)
    return idents


def test_every_kernel_runs_on_the_calling_thread(monkeypatch):
    # The executor only fills batches: it draws normals and, for
    # mc_expected_det, places them into block matrices.  Every kernel
    # runs on the calling thread.
    idents = _spy_threads(monkeypatch, [
        (weingarten, "assemble_batch"), (montecarlo, "_determinants"),
        (montecarlo, "principal_minor_sums_batch"),
        (montecarlo, "max_correlation_batch")])
    _all_estimators(2 * BATCH_SIZE + 1)
    assert sorted(idents) == ["_determinants", "assemble_batch",
                              "max_correlation_batch",
                              "principal_minor_sums_batch"]
    for calls in idents.values():
        assert len(calls) == 3       # one per batch
        assert set(calls) == {threading.get_ident()}


def test_no_traced_sampler_runs_off_the_calling_thread(monkeypatch):
    # The benchmark's span tracer keeps one span stack per process and
    # wraps these bindings, so a fill that called one of them on the
    # executor would corrupt its spans.
    idents = _spy_threads(monkeypatch, [
        (module, name) for module in (weingarten, montecarlo)
        for name in ("sample_block_matrix_batch", "gaussian_weingarten_batch",
                     "assemble_batch") if hasattr(module, name)])
    _all_estimators(2 * BATCH_SIZE + 1)
    assert list(idents) == ["assemble_batch"]
    assert set(idents["assemble_batch"]) == {threading.get_ident()}


def test_every_binding_the_span_tracer_wraps_resolves():
    # Tracer.install looks up each (module, attribute) of BINDINGS, so one
    # moved name breaks every traced benchmark run.  BINDINGS is read from
    # the tracer's source, without importing it.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    bindings, = (ast.literal_eval(node.value)
                 for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["BINDINGS"])
    import svgeom.cli  # noqa: F401
    assert len(bindings) > 30
    for module, attr in bindings:
        assert callable(getattr(sys.modules[module], attr)), (module, attr)


def _tube_hits_in_child(conn):
    est = mc_tube_volume(SpaceSpec((1,), (2,)), 0.3,
                         McConfig(2 * BATCH_SIZE + 1, seed=9))
    conn.send(est.hits)
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_draws_its_own_batches():
    cfg = McConfig(2 * BATCH_SIZE + 1, seed=9)
    hits = mc_tube_volume(SpaceSpec((1,), (2,)), 0.3, cfg).hits
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_tube_hits_in_child, args=(send,))
    child.start()
    send.close()
    try:
        ready = receive.poll(60)
        child_hits = receive.recv() if ready else None
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert ready, "the forked child did not finish within 60 s"
    assert child_hits == hits
    assert child.exitcode == 0
