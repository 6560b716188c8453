"""Independent stochastic oracles for determinants, minors, and tube volumes.

Sampling is organized in fixed-size batches whose random streams are derived
by hashing (seed, batch index), so every estimate is a pure function of the
inputs, the seed, and the sample count.  Batch sums are accumulated and
reduced with numpy's pairwise summation.  Every kernel works on the batch as
the last, contiguous axis: determinants by Householder reflections swept
over the batch, and tube hits by tests that are homogeneous in the row, so
Gaussian rows are never normalized.

A call of several batches fills batches 1, 2, ... in order on a one-thread
executor (one flat draw of normals each, in the public samplers' order,
which mc_expected_det's fill also places into block matrices) into a ring of
RING_SLOTS batch buffers that the call owns, while the calling thread fills
batch 0 and then runs every kernel.  A batch is submitted only once the slot
it fills is free, so at most RING_SLOTS - 1 fills are pending, and outputs
are bit-identical to filling one batch after the other.  A one-batch call
fills inline with no thread, and the executor is shut down before the call
returns or raises, so a forked child never inherits its thread.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bw_algebra import SpaceSpec
from .errors import DomainError, ResourceError
from .manifold import (
    _gram,
    _is_positive_definite,
    _quadratic_forms,
    max_correlation_batch,
)
from .matchings import MatchingProblem
from .tube import _check_index, _check_radius, sphere_volume
from .weingarten import (assemble_normals, curved_normal_dim,
                         place_block_entries, principal_minor_sums_batch)
# Not called here: perfbench/tracer.py wraps these two bindings.
from .weingarten import gaussian_weingarten_batch  # noqa: F401
from .weingarten import sample_block_matrix_batch  # noqa: F401

BATCH_SIZE = 8192
MC_TUBE_AMBIENT_CAP = 12


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed, both integers."""

    samples: int
    seed: int = 42

    def __post_init__(self):
        # bool is an Integral too, but True is no sample count.
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, "
                                  f"not {value!r}")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")


def _batch_counts(samples: int) -> list[int]:
    """Sizes of the batches that cover a sample count, in order."""
    return [min(BATCH_SIZE, samples - done)
            for done in range(0, samples, BATCH_SIZE)]


def _draw(seed: int, index: int, out: np.ndarray) -> None:
    """Fill out with batch index's normals, one flat draw from its stream."""
    np.random.default_rng([seed, index]).standard_normal(out=out)


RING_SLOTS = 3


def _batch_normals(cfg: McConfig, per_sample: int, fill=None):
    """(count, count * per_sample floats) per batch, valid until the next.

    fill(k, count, out) writes batch k's floats, by default its normals
    (`_draw`).  One batch is filled inline; otherwise batch k fills slot
    k % RING_SLOTS of a ring, batch 0 on the calling thread and 1, 2, ...
    in order on a one-thread executor, so a fill must call no binding the
    benchmark's span tracer wraps.  Batch k + RING_SLOTS is submitted once
    the caller hands batch k back, and later batches are yielded once
    their futures are done.  Kernels run only on the calling thread.  A
    fill's error is raised in the caller; returning, closing or an error
    in the caller cancels the pending fills and joins the executor.
    """
    if fill is None:
        def fill(k: int, count: int, out: np.ndarray) -> None:
            _draw(cfg.seed, k, out)
    if cfg.samples <= BATCH_SIZE:
        normals = np.empty(cfg.samples * per_sample)
        fill(0, cfg.samples, normals)
        yield cfg.samples, normals
        return
    # Not at the top: concurrent.futures imports logging, slowing startup.
    from concurrent.futures import ThreadPoolExecutor
    counts = _batch_counts(cfg.samples)
    ring = np.empty((RING_SLOTS, BATCH_SIZE * per_sample))
    helper = ThreadPoolExecutor(max_workers=1)
    drawn = {}

    def slot(k: int) -> np.ndarray:
        return ring[k % RING_SLOTS, :counts[k] * per_sample]

    def draw_ahead(k: int) -> None:
        if k < len(counts):
            drawn[k] = helper.submit(fill, k, counts[k], slot(k))

    try:
        for k in range(1, RING_SLOTS):
            draw_ahead(k)
        fill(0, counts[0], slot(0))
        for k, count in enumerate(counts):
            if k:
                drawn.pop(k).result()
            yield count, slot(k)
            draw_ahead(k + RING_SLOTS)
    finally:
        helper.shutdown(cancel_futures=True)


@dataclass(frozen=True, eq=False)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("bin_left,bin_right,count\n")
            for left, right, count in zip(self.bin_edges[:-1],
                                          self.bin_edges[1:], self.counts):
                fh.write(f"{float(left)!r},{float(right)!r},{int(count)}\n")


_TAILS = np.array([0.0005, 0.9995])


def _tail_quantiles(values: np.ndarray) -> np.ndarray:
    """np.quantile(values, _TAILS) of a finite 1-D array, bit for bit.

    The same linear interpolation between order statistics, numpy's
    `_lerp` included, but the order statistics come from one
    `np.partition` instead of `np.quantile`, whose `np.unique` imports
    numpy.ma on first use.
    """
    n = values.shape[0]
    virtual = (n - 1) * _TAILS
    above = virtual >= n - 1
    # numpy's indices: -1, the maximum, wherever the index reaches it.
    lower = np.where(above, -1, np.floor(virtual)).astype(np.intp)
    upper = np.where(above, -1, lower + 1)
    ordered = np.partition(values, np.concatenate((lower, upper)) % n)
    a, b = ordered[lower], ordered[upper]
    t = virtual - lower
    diff = b - a
    edges = a + diff * t
    np.subtract(b, diff * (1 - t), out=edges, where=t >= 0.5)
    return edges


def _make_histogram(values: np.ndarray) -> Histogram:
    # Heavy determinant tails would otherwise dominate the binning.
    lo, hi = _tail_quantiles(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=100, range=(float(lo), float(hi)))
    return Histogram(edges, counts)


@dataclass(frozen=True, eq=False)
class McStats:
    mean: float
    std_error: float
    samples: int
    seed: int
    histogram: Histogram | None = None


def _mean_and_error(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error is infinite for one
    sample."""
    n = values.shape[0]
    std_error = float(np.std(values, ddof=1) / math.sqrt(n)) \
        if n > 1 else float("inf")
    return float(np.mean(values)), std_error


def _determinants(a: np.ndarray) -> np.ndarray:
    """det a[:, :, b] for every b of an (n, n, batch) array, which is
    overwritten.

    Householder QR without pivoting, vectorized over the batch: step k
    reflects column k below the diagonal, x, onto r e_1 with
    r = -sign(x_0) |x|, so that v = x - r e_1 suffers no cancellation, and
    applies the reflection to the trailing columns one at a time, so
    temporaries are O(n batch).  Each reflection has determinant -1, so
    det = prod(-r).  A zero column has r = 0, hence det 0, and is not
    reflected.
    """
    n = a.shape[0]
    det = np.ones(a.shape[2:])
    for k in range(n):
        x = a[k:, k]
        norm = np.sqrt(np.einsum("ib,ib->b", x, x))
        r = np.copysign(norm, -x[0])
        det *= -r
        if k == n - 1:
            break
        x[0] -= r                  # x is now v, with <v, v> = -2 r v_0
        beta = -1.0 / np.where(norm > 0.0, r * x[0], 1.0)
        for j in range(k + 1, n):
            column = a[k:, j]
            column -= x * (beta * np.einsum("ib,ib->b", x, column))
    return det


def mc_expected_det(problem: MatchingProblem, cfg: McConfig, *,
                    output: Path | str | None = None) -> McStats:
    """Sample determinants of the block matrix and report their statistics.

    The mean estimates the signed weighted matching sum; a 100-bin histogram
    of the empirical distribution is attached and, given an output path,
    written there as CSV.
    """
    m = sum(problem.group_sizes)

    def place(k: int, count: int, out: np.ndarray) -> None:
        place_block_entries(problem.group_sizes, problem.profile,
                            lambda entries: _draw(cfg.seed, k, entries),
                            out.reshape(m * m, count))

    # Each slot is overwritten by its determinants, and refilled after.
    values = np.concatenate([
        _determinants(mats.reshape(m, m, count))
        for count, mats in _batch_normals(cfg, m * m, place)])
    mean, std_error = _mean_and_error(values)
    hist = _make_histogram(values)
    if output is not None:
        hist.to_csv(output)
    return McStats(mean, std_error, cfg.samples, cfg.seed, hist)


def mc_minor_sum(space: SpaceSpec, i: int, cfg: McConfig) -> McStats:
    """Average sum of 2i x 2i principal minors of sampled shape operators."""
    _check_index(i, space)
    chunks = []
    for count, normals in _batch_normals(cfg, curved_normal_dim(space)):
        # Unnamed, a batch's operators are freed before the next's exist.
        chunks.append(principal_minor_sums_batch(
            assemble_normals(space, normals, count), 2 * i))
    mean, std_error = _mean_and_error(np.concatenate(chunks))
    return McStats(mean, std_error, cfg.samples, cfg.seed)


@dataclass(frozen=True, eq=False)
class McVolume:
    volume: float
    std_error: float
    fraction: float
    hits: int
    samples: int
    seed: int


def _hits(space: SpaceSpec, points: np.ndarray,
          threshold: float | np.ndarray) -> np.ndarray:
    """Whether each row's best rank-one correlation exceeds a threshold
    >= 0, one per row or one for all.

    For quadratic forms in three or more variables the correlation is the
    largest |eigenvalue| of the form's matrix A, so a row hits exactly when
    threshold I - A or threshold I + A is not positive definite; for two
    degree-one factors it is the square root of the largest eigenvalue of
    the Gram matrix G, and a row hits exactly when threshold^2 I - G is
    not.  Every other space compares `max_correlation_batch` with the
    threshold.  Every test is homogeneous of degree one in the row and its
    threshold, so rows need not be unit: a row y lies in the tube of
    radius eps about the cone over the manifold exactly when it hits at
    threshold cos(eps) |y|.
    """
    if space.degrees == (2,) and space.dims != (1,):
        a = _quadratic_forms(points.T, space.dims[0])
        return ~(_is_positive_definite(a, threshold, -1.0)
                 & _is_positive_definite(a, threshold, 1.0))
    if space.degrees == (1, 1):
        gram = _gram(space, points)
        return ~_is_positive_definite(gram, threshold ** 2, -1.0)
    return max_correlation_batch(space, points) > threshold


def mc_tube_volume(space: SpaceSpec, eps: float, cfg: McConfig) -> McVolume:
    """Rejection estimate of the tube volume from uniform sphere samples.

    Draws Gaussian rows, whose directions are uniform on the ambient sphere,
    counts those whose best rank-one correlation exceeds cos(eps) |y| (the
    row y is not normalized; `_hits` is homogeneous), and scales the hit
    fraction by the sphere volume.  The standard error comes from the binomial
    variance of the hit count.  On quadratic spaces other than (1,)/(2,)
    and on two degree-one factors, a row's hit is decided by a
    positive-definiteness test (`_hits`), which agrees with the correlation
    except on rows within rounding of cos(eps).
    """
    if space.ambient_dim > MC_TUBE_AMBIENT_CAP:
        raise ResourceError(
            f"ambient dimension {space.ambient_dim} exceeds the rejection "
            f"sampling cap {MC_TUBE_AMBIENT_CAP}; use a smaller space")
    _check_radius(eps)
    threshold = math.cos(eps)
    hits = 0
    for count, normals in _batch_normals(cfg, space.ambient_dim):
        points = normals.reshape(count, space.ambient_dim)
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))
        hits += int(np.count_nonzero(_hits(space, points, threshold * norms)))
    fraction = hits / cfg.samples
    total = sphere_volume(space.sphere_dim)
    volume = fraction * total
    std_error = total * math.sqrt(max(fraction * (1.0 - fraction), 0.0)
                                  / cfg.samples)
    return McVolume(volume, std_error, fraction, hits, cfg.samples, cfg.seed)
