#!/usr/bin/env python3
"""The svgeom benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload exact-tube --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout; svgeom is imported from ./src.  The run
generates the workload's inputs from the seed, measures set-up time in fresh
interpreters, runs the workload's pass of operations in a worker process for
the measured time, checks every output, prints a report and, as its last
line, one JSON object with the metrics.  --trace 0 gives the end-to-end
metrics; --trace 1 gives the per-layer metrics of a run whose odd passes
are traced (see tracer.py).

Exit code 0 when the run completed (whether or not outputs were correct),
2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tracer as tracing
import workloads
from worker import calibrate, monotonic

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5        # fresh interpreters per run for setup_s
IMPORTTIME_SAMPLES = 3   # fresh interpreters per traced run for import.*
MIN_TIMED_OPS = 100      # so p90 has at least ten samples beyond it
RUN_DEADLINE_S = 170.0   # the whole run, set-up and checks included
BLAS_THREADS = "1"
# Median calibration time (worker.calibrate) on the reference machine, a
# 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4.  Times are reported in
# reference seconds: measured seconds times CAL_REFERENCE_S over the
# calibration time measured next to them.
CAL_REFERENCE_S = 0.0020

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the traced run's metrics, in report order."""
    out = [("import.svgeom_s", "s"), ("import.scipy_s", "s"),
           ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
           ("trace.overhead_s", "s")]
    for name in tracing.LAYER_FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_share", "ratio")]
    out += [("manifold.rank_one_distance.converged_frac", "ratio"),
            ("manifold.max_correlation_batch.rows", "count"),
            ("montecarlo.hit_frac", "ratio"),
            ("tube.underflow_terms", "count")]
    return out


class RunError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(request: dict, deadline: float, importtime: bool = False):
    """Run worker.py on a request; (start time, result doc, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd.append(str(HERE / "worker.py"))
    start = monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, err = proc.communicate(json.dumps(request),
                                    timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker exceeded the run deadline")
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    return start, json.loads(out.strip().splitlines()[-1]), err


def import_times(stderr: str) -> tuple[float, float]:
    """(svgeom, scipy) seconds from `python -X importtime` output.

    svgeom: cumulative time of the top-level svgeom imports, everything they
    pull in included.  scipy: self time of every scipy module imported,
    whether at import or during the warm-up.
    """
    svgeom_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        level = len(name) - len(name.lstrip(" "))
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
        if level == 1 and (name == "svgeom" or name.startswith("svgeom.")):
            svgeom_us += int(cumulative_us)
    return svgeom_us / 1e6, scipy_us / 1e6


def src_line_count(src: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((src / "svgeom").glob("*.py")))


def failed_executions(doc: dict, causes: dict[int, list[str]]):
    """{(pass, op index): cause} for every execution that failed."""
    failed = {}
    for p, j, msg in doc["errors"]:
        failed[(p, j)] = f"raised {msg}"
    for p, j in doc["mismatches"]:
        failed.setdefault((p, j), "output differs from the first pass "
                                  "(same inputs, same seed)")
    for j, found in causes.items():
        for p in range(doc["passes"]):
            failed.setdefault((p, j), "; ".join(found))
    return failed


class Speed:
    """Host speed over a run, from the worker's calibration samples.

    factor(t) is CAL_REFERENCE_S over the calibration time at t, taken as
    the running median of three neighbouring samples and interpolated
    linearly in time.
    """

    def __init__(self, samples):
        samples = sorted(samples)
        self.t = [t for t, _ in samples]
        cal = [c for _, c in samples]
        self.cal = [statistics.median(cal[max(0, k - 1): k + 2])
                    for k in range(len(cal))]

    def calibration(self, t: float) -> float:
        k = bisect.bisect_left(self.t, t)
        if k == 0:
            return self.cal[0]
        if k == len(self.t):
            return self.cal[-1]
        t0, t1 = self.t[k - 1], self.t[k]
        w = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
        return self.cal[k - 1] + w * (self.cal[k] - self.cal[k - 1])

    def factor(self, t: float) -> float:
        return CAL_REFERENCE_S / self.calibration(t)


def normalized_durations(doc: dict) -> list[list[float]]:
    """Every execution's duration in reference seconds."""
    speed = Speed(doc["calibrations"])
    return [[d * speed.factor(t + d / 2) for t, d in zip(ts, ds)]
            for ts, ds in zip(doc["starts"], doc["durations"])]


def pass_indices(doc: dict, traced: bool) -> list[int]:
    return [p for p in range(doc["passes"]) if doc["traced"][p] == traced]


def latency_sample(norm, failed: dict, passes) -> list[float]:
    """Durations of the successful executions of the given passes."""
    return [norm[p][j] for p in passes for j in range(len(norm[p]))
            if (p, j) not in failed]


def median_wall(norm, passes) -> float:
    """Median over passes of the summed operation durations."""
    return statistics.median(sum(norm[p]) for p in passes)


def mc_samples_per_s(ops: list[dict], norm, passes) -> float | None:
    """Samples drawn per reference second spent in the Monte Carlo calls
    (median over passes), or None when the workload draws none."""
    mc = [(j, workloads.samples_per_pass([op])) for j, op in enumerate(ops)]
    mc = [(j, n) for j, n in mc if n > 0]
    if not mc:
        return None
    total = sum(n for _, n in mc)
    return statistics.median(total / sum(norm[p][j] for j, _ in mc)
                             for p in passes)


def layer_metrics(doc: dict, norm, underflow: int,
                  imports) -> dict[str, float]:
    n = len(doc["layers"])
    traced_total = sum(w for w, t in zip(doc["walls"], doc["traced"]) if t)
    totals: dict[str, list] = {}
    for layers in doc["layers"]:
        for name, (calls, self_s) in layers.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    counters = doc.get("counters", {})
    out = {"import.svgeom_s": statistics.median(s for s, _ in imports),
           "import.scipy_s": statistics.median(s for _, s in imports),
           "trace.wall_s": median_wall(norm, pass_indices(doc, True)),
           "trace.untraced_wall_s": median_wall(norm,
                                                pass_indices(doc, False))}
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    for name in tracing.LAYER_FUNCTIONS:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_share"] = self_s / traced_total
    rows = counters.get("manifold.rank_one_distance.rows", 0)
    out["manifold.rank_one_distance.converged_frac"] = (
        counters.get("manifold.rank_one_distance.converged", 0) / rows
        if rows else 0.0)
    out["manifold.max_correlation_batch.rows"] = counters.get(
        "manifold.max_correlation_batch.rows", 0) / n
    samples = counters.get("montecarlo.mc_tube_volume.samples", 0)
    out["montecarlo.hit_frac"] = (
        counters.get("montecarlo.mc_tube_volume.hits", 0) / samples
        if samples else 0.0)
    out["tube.underflow_terms"] = underflow
    return out


def self_time_excess(doc: dict) -> list[str]:
    """Traced passes whose summed self times exceed the pass wall time."""
    bad = []
    walls = [w for w, t in zip(doc["walls"], doc["traced"]) if t]
    for k, (layers, wall) in enumerate(zip(doc["layers"], walls)):
        total = sum(self_s for _, self_s in layers.values())
        if total > wall:
            bad.append(f"traced pass {k}: self times sum to {total:.6f} s "
                       f"> wall {wall:.6f} s")
    return bad


def run(args) -> tuple[dict, list[str]]:
    """Measure and check one run; (result line, report lines)."""
    t_begin = monotonic()
    deadline = t_begin + RUN_DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "svgeom" / "__init__.py").is_file():
        raise RunError(f"no svgeom package under {src}; run from the root "
                       "of an svgeom checkout")
    spec = workloads.build(args.workload, args.seed)
    base = {"src": str(src), "import": spec["import"],
            "warmup": spec["warmup"]}
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"

    setup, raw_setup, imports = [], [], []

    def timed_setup(request):
        # Calibrate here just before the child starts, and in the child
        # just after it is ready, so the pair brackets the set-up.
        before = [calibrate() for _ in range(3)]
        start, doc, _ = spawn(request, deadline)
        cal = statistics.median(before + doc["setup_calibrations"])
        raw_setup.append(doc["ready"] - start)
        setup.append(raw_setup[-1] * CAL_REFERENCE_S / cal)
        return doc

    if args.trace:
        for _ in range(IMPORTTIME_SAMPLES):
            _, doc, err = spawn(dict(base, mode="setup"), deadline,
                                importtime=True)
            scale = CAL_REFERENCE_S / statistics.median(
                doc["setup_calibrations"])
            imports.append([t * scale for t in import_times(err)])
    else:
        for _ in range(SETUP_SAMPLES - 1):
            timed_setup(dict(base, mode="setup"))
    request = dict(base, mode="run", ops=spec["ops"], seconds=args.seconds,
                   min_ops=MIN_TIMED_OPS,
                   max_seconds=max(args.seconds, min(4 * args.seconds, 100)),
                   trace=bool(args.trace),
                   trace_out=str(out_dir / f"{stem}-spans.tsv.gz"))
    if args.trace:
        doc = spawn(request, deadline)[1]
    else:
        doc = timed_setup(request)

    ops = spec["ops"]
    causes, underflow = checks.check_outputs(ops, doc["outputs"],
                                             checks.load_reference())
    failed = failed_executions(doc, causes)
    attempted = doc["passes"] * len(ops)
    norm = normalized_durations(doc)
    untraced = pass_indices(doc, False)
    lat = latency_sample(norm, failed, untraced)
    raw_lat = latency_sample(doc["durations"], failed, untraced)
    speed = statistics.median(c for _, c in doc["calibrations"])
    problems = []

    env = dict(doc["env"], blas_threads=int(BLAS_THREADS),
               nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               src_svgeom_lines=src_line_count(src))
    report = [f"# svgeom benchmark: workload {args.workload}, seed "
              f"{args.seed}, {args.seconds} s, trace {int(args.trace)}",
              f"# env {json.dumps(env, sort_keys=True)}",
              f"# closed loop, 1 client, 1 process; {len(ops)} operations "
              f"per pass, {workloads.samples_per_pass(ops)} MC samples per "
              f"pass, {doc['passes']} passes",
              f"# times in reference seconds; median calibration "
              f"{speed * 1e3:.4f} ms against {CAL_REFERENCE_S * 1e3:.4f} ms "
              f"on the reference machine ({len(doc['calibrations'])} samples)",
              f"# failed_frac {len(failed) / attempted:.6g} ratio "
              f"({len(failed)}/{attempted} executions)"]
    for (p, j), cause in sorted(failed.items()):
        report.append(f"#   FAILED pass {p} {ops[j]['id']} "
                      f"{_describe(ops[j])}: {cause}")

    if args.trace:
        metrics = layer_metrics(doc, norm, underflow, imports)
        problems = self_time_excess(doc)
        share = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
        if share > 1.0:
            problems.append(f"self shares sum to {share:.6f} > 1")
        report.append(f"# tracing overhead {metrics['trace.overhead_s']:.6f} s"
                      f" per pass ({metrics['trace.wall_s']:.6f} s traced, "
                      f"{metrics['trace.untraced_wall_s']:.6f} s untraced)")
        units = dict(per_layer_metrics())
        for name in tracing.LAYER_FUNCTIONS:
            self_s = metrics[f"{name}.self_share"] * metrics["trace.wall_s"]
            if metrics[f"{name}.calls"]:
                report.append(f"#   {name:<45} {metrics[name + '.calls']:>10g}"
                              f" calls {self_s:12.6f} s self per pass")
    else:
        tail = checks.tail_percentile(len(lat))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": median_wall(norm, untraced),
            "op_p50_ms": checks.percentile(lat, 50.0) * 1e3,
            "op_p90_ms": checks.percentile(lat, 90.0) * 1e3,
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        report.append(f"# latency sample {len(lat)} operations; highest "
                      f"percentile with >= 10 beyond: p{tail}")
        report.append(
            f"# measured seconds: setup {statistics.median(raw_setup):.6f} s, "
            f"wall {median_wall(doc['durations'], untraced):.6f} s, "
            f"p50 {checks.percentile(raw_lat, 50.0) * 1e3:.6f} ms, "
            f"p90 {checks.percentile(raw_lat, 90.0) * 1e3:.6f} ms")
        rate = mc_samples_per_s(ops, norm, untraced)
        if rate is not None:
            report.append(f"# mc_samples_per_s {rate:.6g} 1/s")
        report.append(f"# tube.underflow_terms {underflow} per pass")
        if tail is None or tail < 90.0:
            problems.append(f"only {len(lat)} timed operations: p90 has "
                            "fewer than ten samples beyond it")
    for problem in problems:
        report.append(f"#   PROBLEM {problem}")
    for name, value in metrics.items():
        report.append(f"{name:<50} {value:>16.9g} {units[name]}")
    result = {"correct": not failed and not problems, "attempted": attempted,
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "setup_s": setup,
         "measured_setup_s": raw_setup, "traced": doc["traced"],
         "durations_s": doc["durations"], "reference_durations_s": norm,
         "calibrations": doc["calibrations"],
         "failures": {f"{p}:{ops[j]['id']}": c
                      for (p, j), c in failed.items()}}) + "\n")
    return result, report


def _describe(op: dict) -> str:
    if op["kind"] == "cli":
        return "svgeom " + " ".join(op["argv"])
    keys = ("dims", "degrees", "eps", "profile", "i", "samples", "seed")
    return op["kind"] + "(" + ", ".join(
        f"{k}={op[k]}" for k in keys if k in op) + ")"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, report = run(args)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
