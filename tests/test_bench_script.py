"""The verdicts of scripts/bench.py on made-up pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

BEFORE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
# Quartiles 0.825 and 1.175 about a median of 1: a spread of 0.35, wider
# than the bound of 0.25.
WIDE = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]


def _metric(after, before=BEFORE):
    return {"before": bench.summary(before), "after": bench.summary(after),
            "after_lower_pairs": sum(a < b for b, a in zip(before, after))}


@pytest.mark.parametrize("after,better,want", [
    ([b - 0.05 for b in BEFORE], "lower", "gain"),
    ([b + 0.05 for b in BEFORE], "higher", "gain"),
    # lower in 8 pairs of 10 only
    ([b - 0.05 for b in BEFORE[:8]] + [1.2, 1.2], "lower", "unresolved"),
    ([b * 1.3 for b in BEFORE], "lower", "worse"),
    ([b * 0.7 for b in BEFORE], "higher", "worse"),
    (BEFORE[::-1], "lower", "unchanged"),
    ([b + 0.05 for b in BEFORE], "lower", "unresolved"),
    # (after, before): equal medians, but a before spread wider than the
    # bound cannot show that nothing changed
    ((WIDE[::-1], WIDE), "lower", "unresolved"),
])
def test_verdict(after, better, want):
    spec = {"name": "wall_s", "better": better, "bound": 0.25}
    metric = _metric(*after) if isinstance(after, tuple) else _metric(after)
    assert bench.verdict(metric, spec) == want


def test_every_end_to_end_metric_has_a_direction_and_a_bound():
    declared = bench.json.loads(bench.BENCHMARK.read_text())["end_to_end"]
    assert declared
    for spec in declared:
        assert spec["better"] in ("lower", "higher") and spec["bound"] > 0


FAKE_RUN = """
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
if workload == FAILING:
    sys.stderr.write("worker exited -9\\n")
    sys.exit(2)
print(json.dumps({"correct": True, "failed": 0, "metrics": {
    name: {"value": 1.0} for name in
    ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}}))
"""


def _checkout(root, failing):
    # A checkout whose perfbench/run.py exits 2 on one workload, as the
    # real one does when its worker dies or the run passes its deadline.
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"FAILING = {failing!r}\n" + FAKE_RUN)
    return root


def test_a_failed_run_is_kept_and_its_workload_unresolved(tmp_path):
    before = _checkout(tmp_path / "before", None)
    after = _checkout(tmp_path / "after", "mc-generic")
    out = tmp_path / "bench.json"
    assert bench.main(["--before", str(before), "--after", str(after),
                       "--out", str(out), "--pairs", "2",
                       "--seconds", "1"]) == 1
    doc = json.loads(out.read_text())
    failed = doc["workloads"]["mc-generic"]
    assert failed["correct"] == {"before": True, "after": False}
    assert [(r["pair"], r["side"], r["exit_code"], r["stderr"], r["metrics"])
            for r in failed["failed_runs"]] == [
        (i, "after", 2, "worker exited -9\n", {}) for i in range(2)]
    assert len(failed["metrics"]) == 5
    for metric in failed["metrics"].values():
        assert metric["before"]["runs"] == [1.0, 1.0]
        assert metric["after"] is None
        assert metric["verdict"] == "unresolved"
    for workload in set(bench.WORKLOADS) - {"mc-generic"}:
        completed = doc["workloads"][workload]
        assert completed["failed_runs"] == []
        assert completed["correct"] == {"before": True, "after": True}
        assert {m["verdict"] for m in completed["metrics"].values()} == \
            {"unchanged"}
