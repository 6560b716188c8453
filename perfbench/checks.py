"""Output checks and statistics for the svgeom benchmark.

Runs in the parent process, after the timed passes, so neither its time nor
its memory enters a measurement.  The references are independent of the
code under test: curvature coefficients, matching determinants and minor
sums come from reference.json (generated once, see make_reference.py),
radial integrals from mpmath's incomplete beta at 30 digits, and the tube
prefactor from the volume formulas evaluated in mpmath.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath

from workloads import reference_key

mpmath.mp.dps = 30

SMALLEST_NORMAL = sys.float_info.min
J_REL_TOL = 1e-9
COMPARE_REL_TOL = 1e-12
CURVATURE_ABS_TOL = 1e-6
MC_ALPHA = 1e-6          # two-sided level of every Monte Carlo test
MC_MEAN_SIGMAS = 6.0     # the same level for the normal-theory mean tests
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def load_reference() -> dict:
    path = Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of PERCENTILE_LADDER with at least ten of n
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def binomial_pvalue(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value of k hits in n trials: twice the tail on k's
    side of the mean, summed term by term in log space.  Valid at k = 0."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == (0 if p <= 0.0 else n) else 0.0
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    step = 1 if k >= n * p else -1
    total, i = 0.0, k
    while 0 <= i <= n:
        term = math.exp(log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * log_p + (n - i) * log_q)
        total += term
        if term <= 1e-17 * total:
            break
        i += step
    return min(1.0, 2.0 * total)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _num_indices(n: int, d: int) -> int:
    return math.comb(n + d, d)


def _sphere_volume(k: int):
    half = mpmath.mpf(k + 1) / 2
    return 2 * mpmath.pi ** half / mpmath.gamma(half)


def _dims(dims, degrees):
    """(manifold dim, normal dim, sphere dim) of a space."""
    ambient = math.prod(_num_indices(n, d) for n, d in zip(dims, degrees))
    m = sum(dims)
    return m, ambient - 1 - m, ambient - 1


def radial_reference(dims, degrees, eps: float, i: int):
    """int_0^eps sin^(c-1+2i) cos^(m-2i), corrected exponent, in mpmath."""
    m, c, _ = _dims(dims, degrees)
    a, b = c - 1 + 2 * i, m - 2 * i
    x = mpmath.sin(mpmath.mpf(eps)) ** 2
    return mpmath.betainc(mpmath.mpf(a + 1) / 2, mpmath.mpf(b + 1) / 2,
                          0, x) / 2


def tube_prefactor(dims, degrees):
    """Manifold volume times the volume of the normal sphere."""
    m, c, _ = _dims(dims, degrees)
    vol = mpmath.mpf(1)
    for n, d in zip(dims, degrees):
        vol *= mpmath.mpf(d) ** (mpmath.mpf(n) / 2) * _sphere_volume(n)
    return vol / 2 ** (len(dims) - 1) * _sphere_volume(c - 1)


def tube_fraction(ref: dict, dims, degrees, eps: float):
    """Closed-form tube volume over the sphere volume, weingarten profile."""
    a = ref["tube"][reference_key(dims, degrees, "weingarten")]
    total = sum(ai * radial_reference(dims, degrees, eps, i)
                for i, ai in enumerate(a))
    return tube_prefactor(dims, degrees) * total / _sphere_volume(
        _dims(dims, degrees)[2])


def _close(x: float, y: float, rel: float = COMPARE_REL_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(y), 1e-300)


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks outputs against the references; tallies underflowed terms.

    Each check returns a list of failure causes; an empty list passes.
    """

    def __init__(self, ref: dict):
        self.ref = ref
        self.underflow_terms = 0
        self._j_cache: dict = {}

    def _j_ref(self, dims, degrees, eps, i):
        key = (tuple(dims), tuple(degrees), eps, i)
        if key not in self._j_cache:
            self._j_cache[key] = radial_reference(dims, degrees, eps, i)
        return self._j_cache[key]

    def tube(self, dims, degrees, eps, profile, out) -> list[str]:
        causes = []
        a_ref = self.ref["tube"].get(reference_key(dims, degrees, profile))
        if a_ref is None:
            return [f"no reference coefficients for {dims}/{degrees}"]
        terms = out["terms"]
        if [t[0] for t in terms] != list(range(len(a_ref))):
            return [f"term indices {[t[0] for t in terms]}"]
        volume = mpmath.mpf(0)
        for (i, a, j), a_i in zip(terms, a_ref):
            if a != a_i:
                causes.append(f"a_{i} = {a!r}, reference {a_i!r}")
            j_ref = self._j_ref(dims, degrees, eps, i)
            volume += a_i * j_ref
            if j_ref < SMALLEST_NORMAL:
                self.underflow_terms += 1
            elif abs(j - j_ref) > J_REL_TOL * j_ref:
                causes.append(f"J_{i} = {j!r}, mpmath {mpmath.nstr(j_ref, 17)}")
        volume *= tube_prefactor(dims, degrees)
        if volume >= SMALLEST_NORMAL and \
                abs(out["volume"] - volume) > J_REL_TOL * volume:
            causes.append(f"volume {out['volume']!r}, "
                          f"reference {mpmath.nstr(volume, 17)}")
        return causes

    def mc_hits(self, groups) -> dict[int, list[str]]:
        """Binomial test per group of tube estimates sharing a space and
        radius: {op index: causes} for every op of a failing group."""
        failures = {}
        for (dims, degrees, eps), members in groups.items():
            hits = sum(round(out["fraction"] * out["samples"])
                       for _, out in members)
            n = sum(out["samples"] for _, out in members)
            p0 = float(tube_fraction(self.ref, dims, degrees, eps))
            pval = binomial_pvalue(hits, n, p0)
            if pval < MC_ALPHA:
                cause = (f"{hits}/{n} hits on {dims}/{degrees} eps={eps!r}, "
                         f"closed form {p0:.6g}: binomial p={pval:.3g}")
                for j, _ in members:
                    failures[j] = [cause]
        return failures

    def mc_mean(self, value, std_error, expected, what) -> list[str]:
        if not (std_error > 0 and
                abs(value - expected) <= MC_MEAN_SIGMAS * std_error):
            return [f"{what} mean {value!r} +/- {std_error!r}, "
                    f"closed form {expected!r}"]
        return []

    def det_reference(self, dims, degrees, profile):
        return self.ref["det"][reference_key(dims, degrees, profile)]

    def minor_reference(self, dims, degrees, i, profile, mode):
        return self.ref["minor"][reference_key(dims, degrees, i, profile,
                                               mode)]

    # -- CLI ----------------------------------------------------------------

    def cli(self, argv, out) -> tuple[list[str], tuple | None]:
        """Check one CLI query.  Returns causes and, for mc-tube, the
        (group key, output) to pool into a binomial test."""
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr'].strip()}"], None
        try:
            doc = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"], None
        opts = {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}
        dims = tuple(int(v) for v in opts["dims"].split(","))
        degrees = tuple(int(v) for v in opts["degrees"].split(","))
        sub = argv[0]
        try:
            return getattr(self, "_cli_" + sub.replace("-", "_"))(
                dims, degrees, opts, doc)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"{sub} output malformed: {type(exc).__name__}: {exc}"], None

    def _config(self, dims, degrees, doc) -> list[str]:
        cfg = doc["config"]
        if cfg["dims"] != list(dims) or cfg["degrees"] != list(degrees):
            return [f"config echo {cfg}"]
        return []

    def _cli_reach(self, dims, degrees, opts, doc):
        d = sum(degrees)
        rho1 = math.sqrt(d / (2.0 * (d - 1)))
        rho2 = math.pi / 4.0
        want = {"rho1": rho1, "rho2": rho2, "reach": min(rho1, rho2)}
        causes = self._config(dims, degrees, doc)
        causes += [f"{k} = {doc[k]!r}, expected {v!r}" for k, v in want.items()
                   if not _close(doc[k], v)]
        regime = "bottleneck-limited" if rho2 <= rho1 else "curvature-limited"
        if doc["regime"] != regime:
            causes.append(f"regime {doc['regime']!r}, expected {regime!r}")
        return causes, None

    def _cli_curvature(self, dims, degrees, opts, doc):
        d, low = sum(degrees), min(degrees)
        top = math.sqrt(2.0 * (d - 1) / d)
        bottom = math.sqrt(2.0 * (low - 1) / low)
        causes = self._config(dims, degrees, doc)
        for key, want, tol in (("max", top, COMPARE_REL_TOL),
                               ("min", bottom, COMPARE_REL_TOL),
                               ("numeric_max", top, CURVATURE_ABS_TOL),
                               ("numeric_min", bottom, CURVATURE_ABS_TOL)):
            if abs(doc[key] - want) > tol * max(1.0, want):
                causes.append(f"{key} = {doc[key]!r}, expected {want!r}")
        argmax = [math.sqrt(g / d) for g in degrees]
        if any(not _close(x, y) for x, y in zip(doc["argmax_theta"], argmax)):
            causes.append(f"argmax_theta {doc['argmax_theta']}")
        return causes, None

    def _cli_weingarten(self, dims, degrees, opts, doc):
        n = sum(dims)
        mat = doc["matrix"]
        causes = self._config(dims, degrees, doc)
        if len(mat) != n or any(len(row) != n for row in mat):
            return causes + [f"matrix is not {n}x{n}"], None
        if any(mat[i][j] != mat[j][i] or not math.isfinite(mat[i][j])
               for i in range(n) for j in range(n)):
            causes.append("matrix is not finite and symmetric")
        if doc["config"].get("seed") != int(opts["seed"]):
            causes.append(f"seed echo {doc['config'].get('seed')}")
        return causes, None

    def _cli_dd(self, dims, degrees, opts, doc):
        d_ref, count_ref = self.det_reference(dims, degrees, opts["profile"])
        causes = []
        if doc["D"] != d_ref:
            causes.append(f"D = {doc['D']!r}, reference {d_ref!r}")
        if doc["matching_count"] != count_ref:
            causes.append(f"matching_count = {doc['matching_count']}, "
                          f"reference {count_ref}")
        if doc["profile"] != opts["profile"]:
            causes.append(f"profile echo {doc['profile']!r}")
        return causes, None

    def _cli_minors(self, dims, degrees, opts, doc):
        want = self.minor_reference(dims, degrees, int(opts["i"]),
                                    opts["profile"], opts["minor-mode"])
        causes = self._config(dims, degrees, doc)
        if doc["value"] != want:
            causes.append(f"value = {doc['value']!r}, reference {want!r}")
        return causes, None

    def _cli_tube(self, dims, degrees, opts, doc):
        eps = float(opts["epsilon"])
        out = {"volume": doc["volume"],
               "terms": [[t["i"], t["a_i"], t["J_i"]] for t in doc["terms"]]}
        causes = self._config(dims, degrees, doc)
        causes += self.tube(dims, degrees, eps, opts["profile"], out)
        return causes, None

    def _cli_mc_det(self, dims, degrees, opts, doc):
        d_ref, _ = self.det_reference(dims, degrees, opts["profile"])
        causes = self._config(dims, degrees, doc)
        if doc["expected"] != d_ref:
            causes.append(f"expected = {doc['expected']!r}, "
                          f"reference {d_ref!r}")
        if doc["samples"] != int(opts["samples"]) or \
                doc["seed"] != int(opts["seed"]):
            causes.append("samples or seed echo differs")
        causes += self.mc_mean(doc["mean"], doc["std_error"], d_ref,
                               "determinant")
        return causes, None

    def _cli_mc_tube(self, dims, degrees, opts, doc):
        causes = self._config(dims, degrees, doc)
        if doc["samples"] != int(opts["samples"]) or \
                doc["seed"] != int(opts["seed"]):
            causes.append("samples or seed echo differs")
        return causes, ((dims, degrees, float(opts["epsilon"])), doc)


def check_outputs(ops: list[dict], outputs: list, ref: dict):
    """Causes per op index for one pass's outputs, and the underflow tally.

    Outputs that are None (the op raised in every pass) are skipped; the
    worker already recorded why.
    """
    checker = Checker(ref)
    causes: dict[int, list[str]] = {}
    tube_groups: dict[tuple, list] = {}
    for j, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        kind = op["kind"]
        found = []
        dims, degrees = tuple(op.get("dims", ())), tuple(op.get("degrees", ()))
        if kind == "tube_volume":
            found = checker.tube(dims, degrees, op["eps"], op["profile"], out)
        elif kind == "mc_tube_volume":
            if out["samples"] != op["samples"] or out["seed"] != op["seed"]:
                found.append("samples or seed echo differs")
            tube_groups.setdefault((dims, degrees, op["eps"]), []).append(
                (j, out))
        elif kind == "mc_expected_det":
            d_ref, _ = checker.det_reference(dims, degrees, op["profile"])
            found = checker.mc_mean(out["mean"], out["std_error"], d_ref,
                                    "determinant")
        elif kind == "mc_minor_sum":
            want = checker.minor_reference(dims, degrees, op["i"],
                                           "weingarten", "corrected")
            found = checker.mc_mean(out["mean"], out["std_error"], want,
                                    "minor sum")
        elif kind == "cli":
            found, group = checker.cli(op["argv"], out)
            if group is not None:
                key, doc = group
                tube_groups.setdefault(key, []).append((j, doc))
        if found:
            causes[j] = found
    for j, found in checker.mc_hits(tube_groups).items():
        causes.setdefault(j, []).extend(found)
    return causes, checker.underflow_terms
