"""Independent stochastic oracles for determinants, minors, and tube volumes.

Sampling is organized in fixed-size batches whose random streams are derived
by hashing (seed, batch index), so every estimate is a pure function of the
inputs, the seed, and the sample count.  Batch sums are accumulated and
reduced with numpy's pairwise summation.  Every kernel works on the batch as
the last, contiguous axis: determinants by Householder reflections swept
over the batch, and tube hits by tests that are homogeneous in the row, so
Gaussian rows are never normalized.

A call of several batches fills batches 1, 2, ... in order on a one-thread
executor, ahead of the calling thread, which fills batch 0 and runs every
kernel (`_estimate`); outputs are bit-identical to filling one batch
after the other.  No estimator writes a file: mc_expected_det keeps its
determinants (8 bytes a sample), which `McStats.histogram` bins on first
read, and a caller writes the CSV with `stats.histogram.to_csv(path)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bw_algebra import SpaceSpec, _integer
from .errors import DomainError, ResourceError
from .manifold import (
    _gram,
    _is_positive_definite,
    _pencil,
    _pencil_hits,
    _quadratic_forms,
    max_correlation_batch,
)
from .matchings import MatchingProblem, _minor_order
from .tube import _check_radius, sphere_volume
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
        _integer("samples", self.samples, 1)
        _integer("seed", self.seed, 0)


def _batch_counts(samples: int) -> list[int]:
    """Sizes of the batches that cover a sample count, in order."""
    return [min(BATCH_SIZE, samples - done)
            for done in range(0, samples, BATCH_SIZE)]


def _draw(seed: int, index: int, out: np.ndarray) -> None:
    """Fill out with batch index's normals, one flat draw from its stream."""
    np.random.default_rng([seed, index]).standard_normal(out=out)


RING_SLOTS = 3


def _estimate(cfg: McConfig, per_sample: int, kernel, fill=None) -> list:
    """[kernel(count, floats) for each batch], run on the calling thread.

    fill(k, count, out) writes batch k's count * per_sample floats, by
    default its normals (`_draw`); an output must not be a view of floats,
    whose slot is refilled.  One batch is filled inline; otherwise batch k
    fills slot k % RING_SLOTS of a ring, batch 0 on the calling thread and
    1, 2, ... in order on a one-thread executor, so a fill must call no
    binding the benchmark's span tracer wraps.  Batch k + RING_SLOTS is
    submitted once batch k's kernel returns.  A fill's error is raised in
    the caller; the call's return or error cancels the pending fills and
    joins the executor.
    """
    if fill is None:
        fill = lambda k, count, out: _draw(cfg.seed, k, out)  # noqa: E731
    counts = _batch_counts(cfg.samples)
    if len(counts) == 1:
        floats = np.empty(cfg.samples * per_sample)
        fill(0, cfg.samples, floats)
        return [kernel(cfg.samples, floats)]
    # Not at the top: concurrent.futures imports logging, slowing startup.
    from concurrent.futures import ThreadPoolExecutor
    ring = np.empty((RING_SLOTS, BATCH_SIZE * per_sample))
    slots = [ring[k % RING_SLOTS, :count * per_sample]
             for k, count in enumerate(counts)]
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        filled = {k: helper.submit(fill, k, counts[k], slots[k])
                  for k in range(1, min(RING_SLOTS, len(counts)))}
        fill(0, counts[0], slots[0])
        outputs = []
        for k, count in enumerate(counts):
            if k:
                filled.pop(k).result()
            outputs.append(kernel(count, slots[k]))
            j = k + RING_SLOTS
            if j < len(counts):
                filled[j] = helper.submit(fill, j, counts[j], slots[j])
        return outputs
    finally:
        helper.shutdown(cancel_futures=True)


@dataclass(frozen=True, eq=False)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray

    def to_csv(self, path) -> None:
        rows = zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts)
        with open(path, "w") as fh:
            fh.write("bin_left,bin_right,count\n" + "".join(
                f"{float(a)!r},{float(b)!r},{int(c)}\n" for a, b, c in rows))


_TAILS = np.array([0.0005, 0.9995])


def _make_histogram(values: np.ndarray) -> Histogram:
    # Heavy determinant tails would otherwise dominate the binning.
    lo, hi = np.quantile(values, _TAILS)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=100, range=(float(lo), float(hi)))
    return Histogram(edges, counts)


@dataclass(frozen=True, eq=False)
class McStats:
    """Mean and standard error; `histogram` bins mc_expected_det's kept
    determinants on first read (cached in a frozen, slotless instance)."""

    mean: float
    std_error: float
    samples: int
    seed: int
    determinants: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def histogram(self) -> Histogram | None:
        values = self.determinants
        return None if values is None else _make_histogram(values)


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


def mc_expected_det(problem: MatchingProblem, cfg: McConfig) -> McStats:
    """Sample determinants of the block matrix; their mean estimates the
    signed weighted matching sum, and `McStats.histogram` bins them."""
    m = sum(problem.group_sizes)

    def place(k: int, count: int, out: np.ndarray) -> None:
        place_block_entries(problem.group_sizes, problem.profile,
                            lambda entries: _draw(cfg.seed, k, entries),
                            out.reshape(m * m, count))

    # Each slot is overwritten by its determinants, and refilled after.
    values = np.concatenate(_estimate(
        cfg, m * m,
        lambda count, mats: _determinants(mats.reshape(m, m, count)), place))
    mean, std_error = _mean_and_error(values)
    return McStats(mean, std_error, cfg.samples, cfg.seed, values)


def mc_minor_sum(space: SpaceSpec, i: int, cfg: McConfig) -> McStats:
    """Average sum of 2i x 2i principal minors of sampled shape operators."""
    i = _minor_order(i, space)
    # Unnamed, a batch's operators are freed before the next's exist.
    mean, std_error = _mean_and_error(np.concatenate(_estimate(
        cfg, curved_normal_dim(space),
        lambda count, normals: principal_minor_sums_batch(
            assemble_normals(space, normals, count), 2 * i))))
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
    not; `_pencil_hits` decides the pencil spaces, and every other space
    compares `max_correlation_batch` with the threshold.  Each test is
    homogeneous of degree one in the row and its threshold, so a row y
    lies in the tube of radius eps about the cone over the manifold
    exactly when it hits at threshold cos(eps) |y|, up to rounding: rows
    are not scaled, so the pencil test (degree 4) fails past about 1e+-77
    and the Gram test (degree 2) past 1e+-154.
    """
    if space.degrees == (2,) and space.dims != (1,):
        a = _quadratic_forms(points.T, space.dims[0])
        return ~(_is_positive_definite(a, threshold, -1.0)
                 & _is_positive_definite(a, threshold, 1.0))
    if space.degrees == (1, 1):
        gram = _gram(space, points)
        return ~_is_positive_definite(gram, threshold ** 2, -1.0)
    pencil = _pencil(space, points)
    if pencil is not None:
        return _pencil_hits(pencil, threshold)
    return max_correlation_batch(space, points) > threshold


def mc_tube_volume(space: SpaceSpec, eps: float, cfg: McConfig) -> McVolume:
    """Rejection estimate of the tube volume from uniform sphere samples.

    Draws Gaussian rows, whose directions are uniform on the ambient sphere,
    counts those whose best rank-one correlation exceeds cos(eps) |y| (the
    row y is not normalized; `_hits` is homogeneous), and scales the hit
    fraction by the sphere volume.  The standard error comes from the binomial
    variance of the hit count.  On quadratic spaces other than (1,)/(2,),
    on two degree-one factors and on the pencil spaces, `_hits` decides a
    row's hit without the correlation, and agrees with it except on rows
    within rounding of cos(eps).
    """
    if space.ambient_dim > MC_TUBE_AMBIENT_CAP:
        raise ResourceError(
            f"ambient dimension {space.ambient_dim} exceeds the rejection "
            f"sampling cap {MC_TUBE_AMBIENT_CAP}; use a smaller space")
    _check_radius(eps)
    threshold = math.cos(eps)

    def count_hits(count: int, normals: np.ndarray) -> int:
        points = normals.reshape(count, space.ambient_dim)
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))
        return int(np.count_nonzero(_hits(space, points, threshold * norms)))

    hits = sum(_estimate(cfg, space.ambient_dim, count_hits))
    fraction = hits / cfg.samples
    total = sphere_volume(space.sphere_dim)
    volume = fraction * total
    std_error = total * math.sqrt(max(fraction * (1.0 - fraction), 0.0)
                                  / cfg.samples)
    return McVolume(volume, std_error, fraction, hits, cfg.samples, cfg.seed)
