"""One benchmark process: set up svgeom, then run timed passes.

Reads a request (JSON) on stdin and writes one JSON document on stdout.
Everything else the process prints goes to stderr.

    mode "setup": import svgeom, run the warm-up, report when it was ready
                  and three calibration times taken just after.
    mode "run":   the same set-up, then repeat the workload's pass of
                  operations until the measured time is used up.  Every
                  pass after the first must reproduce the first pass's
                  outputs bit for bit.  With "trace" set, passes alternate
                  untraced / traced and the traced ones record spans.

Only stdlib modules are imported before svgeom, so the set-up time is the
interpreter, svgeom and the warm-up.  Clock readings use CLOCK_MONOTONIC,
which the parent process shares.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

CAL_INTERVAL_S = 0.25


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _space(op):
    from svgeom.bw_algebra import SpaceSpec

    return SpaceSpec(op["dims"], op["degrees"])


def execute(op: dict) -> dict:
    """Run one operation through svgeom's public API.

    Functions are looked up on their modules at call time, so the traced
    pass sees the wrapped bindings.
    """
    import svgeom

    kind = op["kind"]
    if kind == "tube_volume":
        space = _space(op)
        profile = svgeom.weingarten.variance_profile(op["profile"],
                                                     space.degrees)
        rep = svgeom.tube.tube_volume(space, op["eps"],
                                      op["exponent_convention"],
                                      op["minor_mode"], profile)
        return {"volume": rep.volume, "validity": rep.validity,
                "terms": [[t.i, t.a, t.j] for t in rep.terms]}
    if kind == "mc_tube_volume":
        cfg = svgeom.montecarlo.McConfig(op["samples"], op["seed"])
        est = svgeom.montecarlo.mc_tube_volume(_space(op), op["eps"], cfg)
        return {"volume": est.volume, "std_error": est.std_error,
                "fraction": est.fraction, "samples": est.samples,
                "seed": est.seed}
    if kind == "mc_expected_det":
        profile = svgeom.weingarten.variance_profile(op["profile"],
                                                     op["degrees"])
        problem = svgeom.matchings.MatchingProblem(op["dims"], op["degrees"],
                                                   profile)
        cfg = svgeom.montecarlo.McConfig(op["samples"], op["seed"])
        stats = svgeom.montecarlo.mc_expected_det(problem, cfg)
        return {"mean": stats.mean, "std_error": stats.std_error,
                "samples": stats.samples, "seed": stats.seed}
    if kind == "mc_minor_sum":
        cfg = svgeom.montecarlo.McConfig(op["samples"], op["seed"])
        stats = svgeom.montecarlo.mc_minor_sum(_space(op), op["i"], cfg)
        return {"mean": stats.mean, "std_error": stats.std_error,
                "samples": stats.samples, "seed": stats.seed}
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = svgeom.cli.main(list(op["argv"]))
        return {"code": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}
    if kind == "normal_split":
        svgeom.manifold.normal_split(_space(op))
        return {}
    raise ValueError(f"unknown operation kind {kind!r}")


def set_up(req: dict) -> float:
    """Import svgeom from the checkout and run the warm-up; ready time."""
    src = req["src"]
    sys.path.insert(0, src)
    importlib.import_module(req["import"])
    svgeom = sys.modules["svgeom"]
    if not os.path.abspath(svgeom.__file__).startswith(src + os.sep):
        raise ImportError(f"svgeom imported from {svgeom.__file__}, "
                          f"not from {src}")
    for op in req["warmup"]:
        execute(op)
    return monotonic()


def calibrate() -> float:
    """Seconds of a fixed reference workload that does not touch svgeom.

    The geometric mean of three ~2 ms kernels, one per kind of work in
    svgeom's hot paths: a Python integer loop, Fraction arithmetic and
    small numpy operations.  Timings are divided by it (see run.py) so
    that the host's speed, which drifts by tens of percent over seconds
    on a shared machine, cancels out.
    """
    from fractions import Fraction

    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(30000):
        x += i * i
    t1 = time.perf_counter()
    f = Fraction(0)
    for i in range(1, 500):
        f += Fraction(i * i + 1, 3 * i + 7)
    t2 = time.perf_counter()
    a = np.arange(64.0)
    for _ in range(800):
        a = np.sqrt(a * a + 1.0)
    t3 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)


def run_passes(ops, seconds, min_ops, max_seconds, tracer=None):
    """Repeat the pass for about `seconds` (ending at the pass boundary
    nearest to it), and until at least two passes ran and at least
    `min_ops` untraced operations succeeded; stop anyway at `max_seconds`.
    With a tracer, odd passes are traced.

    Between operations, at most every CAL_INTERVAL_S, the calibration
    kernel runs; its samples are returned with the time they
    were taken, and pass wall times exclude them.
    """
    first_out = [None] * len(ops)
    errors, mismatches = [], []
    starts, durations, walls, traced, layers = [], [], [], [], []
    calibrations = []

    def calibrate_now():
        t = time.perf_counter()
        cal = calibrate()
        calibrations.append([t + cal / 2, cal])
        return time.perf_counter() - t

    t0 = monotonic()
    calibrate_now()
    last_cal = time.perf_counter()
    p = timed = 0
    while True:
        trace_this = tracer is not None and p % 2 == 1
        if trace_this:
            first_span = len(tracer)
            tracer.install()
        row_start, row_dur = [], []
        paused = 0.0
        try:
            start = time.perf_counter()
            for j, op in enumerate(ops):
                if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
                    paused += calibrate_now()
                    last_cal = time.perf_counter()
                if trace_this:
                    tracer.op_id = j
                    root = tracer.open("bench.op")
                t = time.perf_counter()
                try:
                    out = execute(op)
                except Exception as exc:  # the op failed; record and go on
                    out = None
                    errors.append([p, j, f"{type(exc).__name__}: {exc}"])
                dt = time.perf_counter() - t
                if trace_this:
                    tracer.close(root)
                row_start.append(t)
                row_dur.append(dt)
                if out is not None:
                    timed += not trace_this
                    text = json.dumps(out, sort_keys=True)
                    if first_out[j] is None:
                        first_out[j] = text
                    elif text != first_out[j]:
                        mismatches.append([p, j])
            wall = time.perf_counter() - start - paused
        finally:
            if trace_this:
                tracer.uninstall()
        starts.append(row_start)
        durations.append(row_dur)
        walls.append(wall)
        traced.append(trace_this)
        if trace_this:
            from tracer import aggregate

            layers.append(aggregate(tracer, first_span))
        p += 1
        elapsed = monotonic() - t0
        # Stop at the pass boundary nearest to `seconds`.
        if elapsed >= max_seconds or (
                elapsed + wall / 2 >= seconds and p >= 2
                and timed >= min_ops):
            break
    calibrate_now()
    outputs = [None if t is None else json.loads(t) for t in first_out]
    return {"passes": p, "traced": traced, "starts": starts,
            "durations": durations, "walls": walls, "layers": layers,
            "calibrations": calibrations, "outputs": outputs,
            "errors": errors, "mismatches": mismatches}


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    req = json.loads(sys.stdin.read())
    proto = sys.stdout
    sys.stdout = sys.stderr
    ready = set_up(req)
    doc = {"ready": ready,
           "setup_calibrations": [calibrate() for _ in range(3)]}
    if req["mode"] == "run":
        tracer = None
        if req["trace"]:
            from tracer import Tracer

            tracer = Tracer()
        doc.update(run_passes(req["ops"], req["seconds"], req["min_ops"],
                              req["max_seconds"], tracer))
        doc["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        doc["env"] = environment()
        if tracer is not None:
            doc["counters"] = dict(tracer.counters)
            if req.get("trace_out"):
                tracer.write(req["trace_out"])
    proto.write(json.dumps(doc) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
