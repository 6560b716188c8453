"""The verdicts of scripts/bench.py on made-up pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

BEFORE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


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
])
def test_verdict(after, better, want):
    spec = {"name": "wall_s", "better": better, "bound": 0.25}
    assert bench.verdict(_metric(after), spec) == want


def test_every_end_to_end_metric_has_a_direction_and_a_bound():
    declared = bench.json.loads(bench.BENCHMARK.read_text())["end_to_end"]
    assert declared
    for spec in declared:
        assert spec["better"] in ("lower", "higher") and spec["bound"] > 0
