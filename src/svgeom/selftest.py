"""The acceptance suite: one callable per criterion, runnable end to end.

Each criterion checks a published closed form against this package's
independent oracles (brute force, quadrature, finite differences, or Monte
Carlo) at a stated tolerance, and also enforces its runtime budget.  The
full mode uses the stated sample counts; the quick mode shrinks the
stochastic workloads (tolerances scale with the standard errors, so the
checks stay honest) for use as a fast command-line self test.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bw_algebra import (
    SpaceSpec,
    Tensor,
    apply_orthogonal,
    bw_inner,
    evaluate,
    gaussian_tensor,
    random_orthogonal,
)
from .geodesics_reach import (
    bottleneck_check,
    extremal_curvature,
    optimize_curvature,
    reach,
)
from .manifold import (
    normal_split,
    random_segre_point,
    tangent_frame,
    veronese_embed,
)
from .matchings import (
    MatchingProblem,
    expected_det_isserlis,
    expected_minor_sum,
    matching_determinant_exact,
)
from .montecarlo import McConfig, mc_expected_det, mc_minor_sum, mc_tube_volume
from .tube import manifold_volume, tube_volume
from .weingarten import (
    PROFILE_NAMES,
    assemble_weingarten,
    second_fundamental_form_fd,
    variance_profile,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: {self.detail} "
                f"({self.seconds:.3f}s, limit {self.limit:g}s)")


def _result(name, limit, start, ok, detail) -> CriterionResult:
    seconds = time.perf_counter() - start
    return CriterionResult(name, ok and seconds < limit, detail, seconds, limit)


# ---------------------------------------------------------------------------
# 1. reach table
# ---------------------------------------------------------------------------

_REACH_SPACES = {
    2: [((1,), (2,)), ((3,), (2,)), ((1, 1), (1, 1)), ((2, 2), (1, 1))],
    3: [((1,), (3,)), ((2, 1), (1, 2)), ((1, 1, 1), (1, 1, 1))],
    4: [((2,), (4,)), ((1, 1), (2, 2)), ((1, 1, 1, 1), (1, 1, 1, 1))],
    5: [((1,), (5,)), ((2, 1), (2, 3)), ((1, 1, 1), (1, 2, 2))],
    6: [((1,), (6,)), ((2, 1), (3, 3)), ((1, 1, 1), (2, 2, 2))],
    8: [((1,), (8,)), ((1, 1), (4, 4))],
    12: [((1,), (12,)), ((2, 3), (6, 6))],
}


def criterion_reach_table(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    worst_err, worst_time = 0.0, 0.0
    ok = True
    reach(SpaceSpec((1,), (2,)))  # warm up before timing single calls
    for d, entries in _REACH_SPACES.items():
        expected = math.pi / 4.0 if d <= 5 else math.sqrt(d / (2.0 * (d - 1)))
        regime = "bottleneck-limited" if d <= 5 else "curvature-limited"
        for dims, degrees in entries:
            space = SpaceSpec(dims, degrees)
            t0 = time.perf_counter()
            report = reach(space)
            worst_time = max(worst_time, time.perf_counter() - t0)
            worst_err = max(worst_err, abs(report.reach - expected))
            ok = ok and report.regime == regime
    fast = worst_time < 1e-3
    ok = ok and worst_err <= 1e-12 and fast
    # The detail holds no wall time, so that the document is reproducible.
    speed = "every call under 1 ms" if fast else "a call took 1 ms or more"
    detail = f"max error {worst_err:.2e}, {speed}"
    return _result("reach table", 1.0, start, ok, detail)


# ---------------------------------------------------------------------------
# 2. extremal curvature
# ---------------------------------------------------------------------------

def criterion_extremal_curvature(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    tuples = 20 if full else 8
    worst = 0.0
    for _ in range(tuples):
        r = int(rng.integers(1, 5))
        degrees = tuple(int(rng.integers(1, 7)) for _ in range(r))
        if sum(degrees) < 2:
            degrees = (2,) + degrees[1:]
        ext = extremal_curvature(SpaceSpec((1,) * r, degrees))
        searched_max, _ = optimize_curvature(degrees, minimize=False)
        searched_min, _ = optimize_curvature(degrees, minimize=True)
        worst = max(worst, abs(searched_max - ext.max_value),
                    abs(searched_min - ext.min_value))
    ok = worst <= 1e-9
    return _result("extremal curvature", 1.0, start, ok,
                   f"{tuples} degree tuples, max optimizer error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. shape-operator finite-difference oracle
# ---------------------------------------------------------------------------

_SFF_SPACES = [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)), ((2, 1), (2, 3))]


def criterion_weingarten_oracle(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    per_space = 50 if full else 10
    rng = np.random.default_rng(303)
    worst = 0.0
    for dims, degrees in _SFF_SPACES:
        space = SpaceSpec(dims, degrees)
        split = normal_split(space)
        n = space.manifold_dim
        for _ in range(per_space):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            coeffs = rng.standard_normal(space.ambient_dim)
            coeffs[split.base_index] = 0.0
            coeffs[split.tangent_indices] = 0.0
            normal = Tensor(space, coeffs / np.linalg.norm(coeffs))
            lhs = second_fundamental_form_fd(space, v, normal)
            mat = assemble_weingarten(normal).entries
            rhs = float(v @ mat @ v)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-5
    return _result("weingarten fd oracle", 10.0, start, ok,
                   f"{per_space * len(_SFF_SPACES)} pairs, max |fd - quadratic| "
                   f"= {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. matching determinants, exact
# ---------------------------------------------------------------------------

def _isserlis_families(max_m: int):
    """(degrees, group-size tuples) families covering all m <= max_m."""
    out = [((3,), [(m,) for m in range(max_m + 1)])]
    pairs = [(a, b) for a in range(max_m + 1) for b in range(max_m + 1)
             if a + b <= max_m]
    out.append(((2, 3), pairs))
    quads = [(a, b, c, d)
             for a in range(3) for b in range(3) for c in range(3)
             for d in range(3) if a + b + c + d <= max_m]
    out.append(((1, 1, 1, 1), quads))
    return out


def criterion_matching_determinant(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    segre = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    exact_ok = matching_determinant_exact(segre) == Fraction(-10)
    max_m = 8 if full else 6
    mismatches = 0
    checked = 0
    for degrees, size_list in _isserlis_families(max_m):
        for name in PROFILE_NAMES:
            profile = variance_profile(name, degrees)
            for sizes in size_list:
                problem = MatchingProblem(sizes, degrees, profile)
                checked += 1
                if expected_det_isserlis(problem) != \
                        matching_determinant_exact(problem):
                    mismatches += 1
    ok = exact_ok and mismatches == 0
    detail = (f"D(2,2,1,1)={matching_determinant_exact(segre)}, "
              f"{checked} tuple/profile pairs, {mismatches} mismatches")
    return _result("matching determinant", 30.0, start, ok, detail)


# ---------------------------------------------------------------------------
# 5. figure reproduction
# ---------------------------------------------------------------------------

def criterion_figure(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    samples = 100_000 if full else 10_000
    problem = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "det_histogram.csv")
        stats = mc_expected_det(problem, McConfig(samples, seed=42), output=path)
        csv_ok = os.path.getsize(path) > 0
    err = abs(stats.mean + 10.0)
    ok = csv_ok and err <= 3.0 * stats.std_error
    detail = (f"mean {stats.mean:.4f} vs -10, |err| {err:.4f} "
              f"<= 3*SE {3 * stats.std_error:.4f}, histogram CSV written")
    return _result("figure reproduction", 20.0, start, ok, detail)


# ---------------------------------------------------------------------------
# 6. tube adjudication
# ---------------------------------------------------------------------------

def criterion_tube_adjudication(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    samples = 1_000_000 if full else 100_000
    space = SpaceSpec((1,), (2,))
    ok = True
    parts = []
    for k, eps in enumerate((0.1, 0.3)):
        corrected = tube_volume(space, eps, "corrected").volume
        literal = tube_volume(space, eps, "paper").volume
        mc = mc_tube_volume(space, eps, McConfig(samples, seed=42 + k))
        close = abs(mc.volume - corrected) <= 3.0 * mc.std_error
        far = abs(mc.volume - literal) > 10.0 * mc.std_error
        ok = ok and close and far
        parts.append(f"eps={eps}: mc {mc.volume:.4f}, corrected "
                     f"{corrected:.4f} (|d|/SE="
                     f"{abs(mc.volume - corrected) / mc.std_error:.1f}), "
                     f"literal {literal:.4f} (|d|/SE="
                     f"{abs(mc.volume - literal) / mc.std_error:.0f})")
    return _result("tube adjudication", 120.0, start, ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 7. minor-multiplicity adjudication
# ---------------------------------------------------------------------------

def criterion_minor_adjudication(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    samples = 100_000 if full else 10_000
    space = SpaceSpec((2, 2), (1, 1))
    corrected = expected_minor_sum(space, 1, mode="corrected")
    literal = expected_minor_sum(space, 1, mode="paper")
    stats = mc_minor_sum(space, 1, McConfig(samples, seed=42))
    close = abs(stats.mean - corrected) <= 3.0 * stats.std_error
    far = abs(stats.mean - literal) > 10.0 * stats.std_error
    ok = close and far and corrected == -4.0 and literal == -1.0
    detail = (f"mc {stats.mean:.4f}, corrected {corrected} (|d|/SE="
              f"{abs(stats.mean - corrected) / stats.std_error:.1f}), "
              f"literal {literal} (|d|/SE="
              f"{abs(stats.mean - literal) / stats.std_error:.0f})")
    return _result("minor multiplicities", 60.0, start, ok, detail)


# ---------------------------------------------------------------------------
# 8. geometry invariants
# ---------------------------------------------------------------------------

_INVARIANT_SPACES = [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)),
                     ((1, 1), (2, 1)), ((2, 1), (1, 2))]


def criterion_geometry_invariants(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    per_block = 250 if full else 50
    rng = np.random.default_rng(808)
    ok = True
    notes = []

    # orthogonal invariance of the inner product
    worst = 0.0
    for trial in range(per_block):
        dims, degrees = _INVARIANT_SPACES[trial % len(_INVARIANT_SPACES)]
        space = SpaceSpec(dims, degrees)
        f = gaussian_tensor(space, int(rng.integers(2 ** 31)))
        g = gaussian_tensor(space, int(rng.integers(2 ** 31)))
        qs = [random_orthogonal(n + 1, rng) for n in dims]
        lhs = bw_inner(apply_orthogonal(f, qs), apply_orthogonal(g, qs))
        rel = abs(lhs - bw_inner(f, g)) / (f.norm * g.norm)
        worst = max(worst, rel)
    ok = ok and worst <= 1e-10
    notes.append(f"orth invariance {worst:.1e}")

    # reproducing kernel
    worst = 0.0
    for trial in range(per_block):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 5))
        space = SpaceSpec((n,), (d,))
        f = gaussian_tensor(space, int(rng.integers(2 ** 31)))
        f = Tensor(space, f.coeffs / f.norm)
        ell = rng.standard_normal(n + 1)
        ell /= np.linalg.norm(ell)
        gap = abs(evaluate(f, ell) - bw_inner(f, veronese_embed(ell, d)))
        worst = max(worst, gap)
    ok = ok and worst <= 1e-12
    notes.append(f"reproducing kernel {worst:.1e}")

    # local isometry of the product map
    worst = 0.0
    for trial in range(per_block):
        dims, degrees = _INVARIANT_SPACES[trial % len(_INVARIANT_SPACES)]
        space = SpaceSpec(dims, degrees)
        point = random_segre_point(space, rng)
        frame = np.stack([t.coeffs for t in tangent_frame(point)])
        gram = frame @ frame.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(frame))))))
    ok = ok and worst <= 1e-10
    notes.append(f"isometry gram {worst:.1e}")

    # bottleneck width
    trials = per_block
    per_space = max(trials // len(_INVARIANT_SPACES), 1)
    worst = 0.0
    for dims, degrees in _INVARIANT_SPACES:
        report = bottleneck_check(SpaceSpec(dims, degrees), per_space,
                                  seed=int(rng.integers(2 ** 31)))
        worst = max(worst, report["max_base_pairing"],
                    report["max_tangent_pairing"])
    ok = ok and worst <= 1e-10
    notes.append(f"bottleneck pairings {worst:.1e}")

    return _result("geometry invariants", 30.0, start, ok, ", ".join(notes))


# ---------------------------------------------------------------------------
# 9. volume cross-check
# ---------------------------------------------------------------------------

def criterion_volume_crosscheck(full: bool = True) -> CriterionResult:
    start = time.perf_counter()
    from .tube import _adaptive_simpson

    def speed(theta: float, h: float = 1e-6) -> float:
        plus = veronese_embed((math.cos(theta + h), math.sin(theta + h)), 2)
        minus = veronese_embed((math.cos(theta - h), math.sin(theta - h)), 2)
        return float(np.linalg.norm((plus.coeffs - minus.coeffs) / (2 * h)))

    length = 2.0 * _adaptive_simpson(speed, 0.0, math.pi, tol=1e-10)
    expected = manifold_volume(SpaceSpec((1,), (2,)))
    err = abs(length - expected)
    ok = err <= 1e-6 and abs(expected - 2.0 * math.sqrt(2.0) * math.pi) <= 1e-12
    detail = (f"arc length {length:.9f} vs closed form {expected:.9f}, "
              f"err {err:.2e}")
    return _result("volume cross-check", 1.0, start, ok, detail)


CRITERIA = (
    criterion_reach_table,
    criterion_extremal_curvature,
    criterion_weingarten_oracle,
    criterion_matching_determinant,
    criterion_figure,
    criterion_tube_adjudication,
    criterion_minor_adjudication,
    criterion_geometry_invariants,
    criterion_volume_crosscheck,
)


def run_all(full: bool = False) -> list[CriterionResult]:
    return [criterion(full) for criterion in CRITERIA]
