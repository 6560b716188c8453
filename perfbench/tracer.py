"""Span tracing of svgeom from outside the package.

A traced pass replaces the module-level bindings through which one svgeom
layer calls another (for example ``svgeom.montecarlo.max_correlation_batch``
or ``svgeom.tube.radial_integral_quadrature``) with wrappers that record a
span per call, and restores the originals afterwards.  No source file is
edited and only public names are wrapped.  A span is named after the module
and function that define the wrapped object, so every binding of one
function records under one name.

Spans are kept in memory as parallel arrays (name, start, end, parent,
operation) and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) pairs.  Bindings of modules the workload never
# imported are skipped.
BINDINGS = (
    # benchmark -> cli, and cli -> every layer it dispatches to
    ("svgeom.cli", "main"),
    ("svgeom.cli", "build_parser"),
    ("svgeom.cli", "reach"),
    ("svgeom.cli", "extremal_curvature"),
    ("svgeom.cli", "tube_volume"),
    ("svgeom.cli", "expected_minor_sum"),
    ("svgeom.cli", "matching_determinant"),
    ("svgeom.cli", "matching_count"),
    ("svgeom.cli", "mc_expected_det"),
    ("svgeom.cli", "mc_tube_volume"),
    ("svgeom.cli", "sample_gaussian_weingarten"),
    # benchmark -> tube, tube -> matchings / geodesics_reach, and the
    # module-internal radial integral calls
    ("svgeom.tube", "tube_volume"),
    ("svgeom.tube", "radial_integral"),
    ("svgeom.tube", "radial_integral_quadrature"),
    ("svgeom.tube", "expected_minor_sum_exact"),
    ("svgeom.tube", "reach"),
    ("svgeom.matchings", "expected_minor_sum_exact"),
    ("svgeom.matchings", "matching_determinant_exact"),
    ("svgeom.geodesics_reach", "optimize_curvature"),
    ("svgeom.geodesics_reach", "veronese_coeffs"),
    ("svgeom.geodesics_reach", "kron_all"),
    ("svgeom.geodesics_reach", "normal_split"),
    # benchmark -> montecarlo, montecarlo -> manifold / weingarten
    ("svgeom.montecarlo", "mc_tube_volume"),
    ("svgeom.montecarlo", "mc_expected_det"),
    ("svgeom.montecarlo", "mc_minor_sum"),
    ("svgeom.montecarlo", "max_correlation_batch"),
    ("svgeom.montecarlo", "sample_block_matrix_batch"),
    ("svgeom.montecarlo", "gaussian_weingarten_batch"),
    ("svgeom.montecarlo", "principal_minor_sums_batch"),
    # manifold -> bw_algebra and the per-row optimizer
    ("svgeom.manifold", "rank_one_distance"),
    ("svgeom.manifold", "veronese_coeffs"),
    ("svgeom.manifold", "kron_all"),
    # weingarten -> manifold and its internal assembly
    ("svgeom.weingarten", "normal_split"),
    ("svgeom.weingarten", "assemble_batch"),
    ("svgeom.weingarten", "gaussian_weingarten_batch"),
    ("svgeom.weingarten", "sample_block_matrix_batch"),
)

# Span names of the bindings above, one per function; the per-layer
# metrics are reported for each.
LAYER_FUNCTIONS = (
    "cli.main",
    "cli.build_parser",
    "geodesics_reach.reach",
    "geodesics_reach.extremal_curvature",
    "geodesics_reach.optimize_curvature",
    "tube.tube_volume",
    "tube.radial_integral",
    "tube.radial_integral_quadrature",
    "matchings.expected_minor_sum",
    "matchings.expected_minor_sum_exact",
    "matchings.matching_determinant",
    "matchings.matching_determinant_exact",
    "matchings.matching_count",
    "montecarlo.mc_tube_volume",
    "montecarlo.mc_expected_det",
    "montecarlo.mc_minor_sum",
    "manifold.max_correlation_batch",
    "manifold.rank_one_distance",
    "manifold.normal_split",
    "bw_algebra.veronese_coeffs",
    "bw_algebra.kron_all",
    "weingarten.sample_gaussian_weingarten",
    "weingarten.gaussian_weingarten_batch",
    "weingarten.sample_block_matrix_batch",
    "weingarten.assemble_batch",
    "weingarten.principal_minor_sums_batch",
)


def span_name(fn) -> str:
    """'<module>.<function>' of the defining module, without 'svgeom.'."""
    module = fn.__module__.removeprefix("svgeom.")
    return f"{module}.{fn.__name__}"


# Counters read from arguments or results at the span boundary.
def _count_rank_one(counters, args, result):
    counters["manifold.rank_one_distance.rows"] += 1
    counters["manifold.rank_one_distance.converged"] += bool(result.converged)


def _count_batch_rows(counters, args, result):
    counters["manifold.max_correlation_batch.rows"] += len(args[1])


def _count_hits(counters, args, result):
    counters["montecarlo.mc_tube_volume.samples"] += result.samples
    counters["montecarlo.mc_tube_volume.hits"] += round(
        result.fraction * result.samples)


INSPECT = {
    "manifold.rank_one_distance": _count_rank_one,
    "manifold.max_correlation_batch": _count_batch_rows,
    "montecarlo.mc_tube_volume": _count_hits,
}


class Tracer:
    """In-memory span recorder for one process, one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn):
        name = span_name(fn)
        inspect = INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if inspect is not None:
                inspect(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of a module the process has imported."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for module, attr in BINDINGS:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path) -> None:
        """Every span, as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\n")


def self_times(start, end, parent, first: int = 0) -> list[float]:
    """Self time of spans first..n-1: duration minus the part of its
    interval that its child spans cover (overlapping children counted
    once).  Parents must precede their children."""
    n = len(start)
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(first, n):
        if parent[i] >= first:
            children[parent[i]].append(i)
    out = []
    for i in range(first, n):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda k: start[k]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def aggregate(tracer: Tracer, first: int = 0) -> dict[str, list]:
    """{span name: [calls, self seconds]} over spans first..n-1."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent, first)
    out: dict[str, list] = {}
    for k, i in enumerate(range(first, len(tracer))):
        entry = out.setdefault(tracer.names[tracer.name[i]], [0, 0.0])
        entry[0] += 1
        entry[1] += selfs[k]
    return out
