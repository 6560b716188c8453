"""The acceptance suite: one callable per criterion, runnable end to end.

Each criterion checks a published closed form against this package's
independent oracles (brute force, quadrature, finite differences, exact
identities, or Monte Carlo) at a stated tolerance, and returns whether it
passed and a one-line detail.  One runner, `run`, times each criterion; the
seconds are reported but no verdict reads a clock.  The full mode uses the
stated sample counts; the quick mode shrinks the workloads (tolerances
scale with the standard errors, so the checks stay honest) for use as a
fast command-line self test.
"""

from __future__ import annotations

import itertools
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
from .tube import sphere_volume, tube_volume
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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.3f}s)"


# ---------------------------------------------------------------------------
# 1. reach table
# ---------------------------------------------------------------------------

REACH_SPACES = {
    2: [((1,), (2,)), ((3,), (2,)), ((1, 1), (1, 1)), ((2, 2), (1, 1))],
    3: [((1,), (3,)), ((2, 1), (1, 2)), ((1, 1, 1), (1, 1, 1))],
    4: [((2,), (4,)), ((1, 1), (2, 2)), ((1, 1, 1, 1), (1, 1, 1, 1))],
    5: [((1,), (5,)), ((2, 1), (2, 3)), ((1, 1, 1), (1, 2, 2))],
    6: [((1,), (6,)), ((2, 1), (3, 3)), ((1, 1, 1), (2, 2, 2))],
    8: [((1,), (8,)), ((1, 1), (4, 4))],
    12: [((1,), (12,)), ((2, 3), (6, 6))],
}


def criterion_reach_table(full: bool = True) -> tuple[bool, str]:
    worst_err, ok = 0.0, True
    for d, entries in REACH_SPACES.items():
        expected = math.pi / 4.0 if d <= 5 else math.sqrt(d / (2.0 * (d - 1)))
        regime = "bottleneck-limited" if d <= 5 else "curvature-limited"
        for dims, degrees in entries:
            report = reach(SpaceSpec(dims, degrees))
            worst_err = max(worst_err, abs(report.reach - expected))
            ok = ok and report.regime == regime
    return ok and worst_err <= 1e-12, f"max error {worst_err:.2e}"


# ---------------------------------------------------------------------------
# 2. extremal curvature
# ---------------------------------------------------------------------------

def criterion_extremal_curvature(full: bool = True) -> tuple[bool, str]:
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
    return worst <= 1e-9, f"{tuples} degree tuples, max optimizer error {worst:.2e}"


# ---------------------------------------------------------------------------
# 3. shape-operator finite-difference oracle
# ---------------------------------------------------------------------------

_SFF_SPACES = [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)), ((2, 1), (2, 3))]


def criterion_weingarten_oracle(full: bool = True) -> tuple[bool, str]:
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
    return worst <= 1e-5, (f"{per_space * len(_SFF_SPACES)} pairs, "
                           f"max |fd - quadratic| = {worst:.2e}")


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


def criterion_matching_determinant(full: bool = True) -> tuple[bool, str]:
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
    return ok, detail


# ---------------------------------------------------------------------------
# 5. figure reproduction
# ---------------------------------------------------------------------------

def criterion_figure(full: bool = True) -> tuple[bool, str]:
    samples = 100_000 if full else 10_000
    problem = MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "det_histogram.csv")
        stats = mc_expected_det(problem, McConfig(samples, seed=42))
        stats.histogram.to_csv(path)
        csv_ok = os.path.getsize(path) > 0
    err = abs(stats.mean + 10.0)
    ok = csv_ok and err <= 3.0 * stats.std_error
    detail = (f"mean {stats.mean:.4f} vs -10, |err| {err:.4f} "
              f"<= 3*SE {3 * stats.std_error:.4f}, histogram CSV written")
    return ok, detail


# ---------------------------------------------------------------------------
# 6. tube adjudication
# ---------------------------------------------------------------------------

def criterion_tube_adjudication(full: bool = True) -> tuple[bool, str]:
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
    return ok, "; ".join(parts)


# ---------------------------------------------------------------------------
# 7. minor-multiplicity adjudication
# ---------------------------------------------------------------------------

def criterion_minor_adjudication(full: bool = True) -> tuple[bool, str]:
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
    return ok, detail


# ---------------------------------------------------------------------------
# 8. geometry invariants
# ---------------------------------------------------------------------------

_INVARIANT_SPACES = [((1,), (2,)), ((2,), (3,)), ((1, 1), (1, 1)),
                     ((1, 1), (2, 1)), ((2, 1), (1, 2))]


def criterion_geometry_invariants(full: bool = True) -> tuple[bool, str]:
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

    return ok, ", ".join(notes)


# ---------------------------------------------------------------------------
# 9. Gauss-Bonnet closure
# ---------------------------------------------------------------------------

def _gauss_bonnet_spaces(max_n: int):
    """1-3 factors, non-decreasing dims with an even sum n <= max_n, degrees
    1-3, positive codimension, and a sphere volume that does not underflow."""
    for r in (1, 2, 3):
        for dims in itertools.combinations_with_replacement(range(1, max_n + 1), r):
            if sum(dims) % 2 or sum(dims) > max_n:
                continue
            for degrees in itertools.product((1, 2, 3), repeat=r):
                space = SpaceSpec(dims, degrees)
                if space.normal_dim >= 1 and sphere_volume(space.sphere_dim):
                    yield space


def _gauss_bonnet(space: SpaceSpec, profile: str) -> tuple[float, float]:
    """The tube volume at pi/2 over vol(S^N), and its gap from chi(M) / 2
    over the scale max(1, sum |contribution| / vol(S^N)) of its terms.

    At eps = pi/2 Weyl's expansion counts the critical points of a height
    function on M with signs, half of them by the antipodal symmetry, so the
    ratio is chi(M) / 2: 1 when every n_k is even, else 0.
    """
    sphere = sphere_volume(space.sphere_dim)
    report = tube_volume(space, math.pi / 2, "corrected", "corrected",
                         variance_profile(profile, space.degrees))
    ratio = report.volume / sphere
    half_chi = 1.0 if all(n % 2 == 0 for n in space.dims) else 0.0
    scale = max(1.0, sum(abs(t.contribution) for t in report.terms) / sphere)
    return ratio, abs(ratio - half_chi) / scale


def criterion_gauss_bonnet(full: bool = True) -> tuple[bool, str]:
    gaps = [_gauss_bonnet(space, "weingarten")[1]
            for space in _gauss_bonnet_spaces(12 if full else 6)]
    missed = sum(gap > 1e-9 for gap in gaps)
    # def-d breaks the identity: on (2,)/(2,) the ratio is -2, not 1.
    def_d, def_d_gap = _gauss_bonnet(SpaceSpec((2,), (2,)), "def-d")
    ok = missed == 0 and def_d_gap > 1e-9
    return ok, (f"{len(gaps)} spaces, worst gap {max(gaps):.1e} of scale, "
                f"{missed} over 1e-9; def-d ratio {def_d:.6g} vs 1 on (2,)/(2,)")


CRITERIA = {
    "reach table": criterion_reach_table,
    "extremal curvature": criterion_extremal_curvature,
    "weingarten fd oracle": criterion_weingarten_oracle,
    "matching determinant": criterion_matching_determinant,
    "figure reproduction": criterion_figure,
    "tube adjudication": criterion_tube_adjudication,
    "minor multiplicities": criterion_minor_adjudication,
    "geometry invariants": criterion_geometry_invariants,
    "gauss-bonnet closure": criterion_gauss_bonnet,
}


def run(name: str, full: bool = False) -> CriterionResult:
    """Run one criterion; its seconds are reported, never judged."""
    start = time.perf_counter()
    passed, detail = CRITERIA[name](full)
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all(full: bool = False) -> list[CriterionResult]:
    return [run(name, full) for name in CRITERIA]
