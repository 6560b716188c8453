#!/usr/bin/env python3
"""Compare two checkouts on every benchmark workload and write BENCH_<n>.json.

    python3 scripts/bench.py --before ../parent --after . --out BENCH_32.json \
        --seed 11 --seconds 20

Runs `perfbench/run.py --trace 0` of each checkout, from its own root, for
every workload, in alternating pairs: pair i uses seed --seed + i for both
runs, and the checkout that runs first alternates from pair to pair, so
drift of the machine does not favour one side.  The file holds, per
workload and metric, each side's runs, median and quartiles, and the number
of pairs in which the after run was lower; per checkout, its commit and the
line count of src/svgeom.  mc_samples_per_s is read from the run's report.
A checkout's commit is recorded only when the checkout is the root of its
own git work tree (a clone, say), and is null otherwise: a `git archive`
copy unpacked inside another work tree would report that tree's HEAD.

Each end-to-end metric that BENCHMARK.json (beside this script's directory,
read only) declares also gets a verdict, printed and stored: `gain` when the
after run is better in at least 9 of 10 pairs and its median beats the
before median by more than the before quartile spread, and at least 10
pairs ran (with fewer, such a result is `unresolved`); `worse` when its
median is worse than the before median by more than the metric's relative
`bound`; `unresolved` when the before spread is wider than that bound,
unless every after run beats every before run; otherwise `unchanged` when
the medians differ by at most that spread, and `unresolved` when they
differ by more.

A run that exits non-zero (perfbench/run.py exits 2 when a worker dies or
the run passes its deadline) is kept with its exit code and the tail of
its stderr, as not correct and with no metrics.  It is left out of the
summaries, every verdict of its workload is `unresolved`, the file is
still written, and the script returns 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("exact-tube", "mc-vectorized", "mc-generic", "cli-queries")
SIDES = ("before", "after")
RATE = re.compile(r"^# mc_samples_per_s (\S+) 1/s$", re.MULTILINE)
PAIRS = 10
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run: its metrics, correctness and failures,
    or, if it exits non-zero, its exit code and the tail of its stderr."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        return {"metrics": {}, "correct": False, "failed": None,
                "exit_code": done.returncode,
                "stderr": done.stderr[-4000:]}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    rate = RATE.search(done.stdout)
    if rate:
        metrics["mc_samples_per_s"] = float(rate.group(1))
    return {"metrics": metrics, "correct": result["correct"],
            "failed": result["failed"]}


def summary(values: list[float]) -> dict | None:
    if not values:
        return None
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in (checkout / "src" / "svgeom").glob("*.py"))


def commit(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]) != checkout:
        return None
    return lines[1]


def compare(runs: dict) -> dict:
    """Per metric: each side's summary of its completed runs and the pairs
    where after < before; a failed run has no metrics."""
    names = dict.fromkeys(name for side in SIDES for run in runs[side]
                          for name in run["metrics"])
    out = {}
    for name in names:
        sides = {side: [r["metrics"].get(name) for r in runs[side]]
                 for side in SIDES}
        out[name] = {side: summary([v for v in sides[side] if v is not None])
                     for side in SIDES}
        out[name]["after_lower_pairs"] = sum(
            a < b for b, a in zip(sides["before"], sides["after"])
            if a is not None and b is not None)
    return out


def verdict(metric: dict, spec: dict) -> str:
    """gain, worse, unchanged or unresolved, for one metric's `compare`
    entry and its BENCHMARK.json declaration (better, bound)."""
    before, after = metric["before"], metric["after"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    pairs = len(before["runs"])
    better_pairs = (metric["after_lower_pairs"] if sign > 0 else sum(
        a > b for b, a in zip(before["runs"], after["runs"])))
    gap = sign * (before["median"] - after["median"])
    spread = before["q3"] - before["q1"]
    if better_pairs >= 0.9 * pairs and gap > spread:
        return "gain" if pairs >= PAIRS else "unresolved"
    if -gap > spec["bound"] * abs(before["median"]):
        return "worse"
    if spread > spec["bound"] * abs(before["median"]) and not all(
            sign * (b - a) > 0 for b in before["runs"] for a in after["runs"]):
        return "unresolved"
    return "unchanged" if abs(gap) <= spread else "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    declared = {spec["name"]: spec for spec in
                json.loads(BENCHMARK.read_text())["end_to_end"]}
    checkouts = {"before": args.before.resolve(),
                 "after": args.after.resolve()}
    doc = {
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "python": platform.python_version()},
        "settings": {"pairs": args.pairs, "seeds": [args.seed + i for i in
                                                    range(args.pairs)],
                     "seconds": args.seconds, "trace": 0},
        "checkouts": {side: {"commit": commit(path),
                             "src_lines": src_lines(path)}
                      for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, args.seed + i,
                               args.seconds)
                runs[side].append(run)
                print(workload, i, side, json.dumps(run), flush=True)
        metrics = compare(runs)
        failures = [dict(run, pair=i, side=side) for side in SIDES
                    for i, run in enumerate(runs[side]) if "exit_code" in run]
        for name in filter(declared.__contains__, metrics):
            metrics[name]["verdict"] = ("unresolved" if failures else
                                        verdict(metrics[name], declared[name]))
            print(workload, name, metrics[name]["verdict"], flush=True)
        doc["workloads"][workload] = {
            "correct": {side: all(r["correct"] and not r["failed"]
                                  for r in runs[side]) for side in SIDES},
            "failed_runs": failures,
            "metrics": metrics}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return int(any(w["failed_runs"] for w in doc["workloads"].values()))


if __name__ == "__main__":
    sys.exit(main())
