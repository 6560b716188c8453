import pytest

import run
import worker
import workloads


def _doc(durations, errors=(), mismatches=()):
    return {"passes": len(durations), "durations": durations,
            "traced": [False] * len(durations),
            "errors": [list(e) for e in errors],
            "mismatches": [list(m) for m in mismatches]}


def test_failed_operations_count_and_leave_the_latency_sample():
    # Three ops, three passes.  Op 0 raised in pass 1, op 1 failed its
    # output check (every pass), op 2 differed from pass 0 in pass 2.
    dur = [[0.1, 0.2, 0.3], [5.0, 0.2, 0.3], [0.1, 0.2, 0.9]]
    doc = _doc(dur, errors=[(1, 0, "ValueError: boom")], mismatches=[(2, 2)])
    failed = run.failed_executions(doc, {1: ["a_1 = 2.0, reference 1.0"]})
    assert set(failed) == {(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)}
    assert failed[(1, 0)] == "raised ValueError: boom"
    assert "reference" in failed[(0, 1)]
    sample = run.latency_sample(dur, failed, run.pass_indices(doc, False))
    assert sorted(sample) == [0.1, 0.1, 0.3, 0.3]


def test_traced_passes_stay_out_of_the_latency_sample():
    doc = _doc([[1.0], [50.0], [2.0], [60.0]])
    doc["traced"] = [False, True, False, True]
    passes = run.pass_indices(doc, False)
    assert run.latency_sample(doc["durations"], {}, passes) == [1.0, 2.0]
    assert run.median_wall(doc["durations"], run.pass_indices(doc, True)) \
        == 55.0


def test_durations_scale_by_the_calibration_next_to_them():
    ref = run.CAL_REFERENCE_S
    doc = _doc([[1.0, 1.0]])
    doc["starts"] = [[0.0, 10.0]]
    # The host ran at reference speed until t=2, then at half speed.
    doc["calibrations"] = [[0.0, ref], [2.0, ref], [9.0, 2 * ref],
                           [12.0, 2 * ref]]
    assert run.normalized_durations(doc) == [[1.0, 0.5]]


def _fake(monkeypatch, fn):
    monkeypatch.setattr(worker, "execute", fn)
    monkeypatch.setattr(worker, "calibrate", lambda: 0.001)


def test_worker_records_raising_operations(monkeypatch):
    def fake_execute(op):
        if op["id"] == "bad":
            raise ValueError("no")
        return {"value": op["id"]}

    _fake(monkeypatch, fake_execute)
    ops = [{"id": "ok"}, {"id": "bad"}]
    doc = worker.run_passes(ops, seconds=0.0, min_ops=3, max_seconds=60.0)
    assert doc["passes"] == 3
    assert doc["errors"] == [[p, 1, "ValueError: no"] for p in range(3)]
    assert doc["outputs"] == [{"value": "ok"}, None]
    assert doc["mismatches"] == []
    assert len(doc["calibrations"]) >= 2


def test_worker_flags_outputs_that_change_between_passes(monkeypatch):
    counter = iter(range(100))
    _fake(monkeypatch, lambda op: {"n": next(counter)})
    doc = worker.run_passes([{"id": "x"}], seconds=0.0, min_ops=1,
                            max_seconds=60.0)
    assert doc["passes"] == 2 and doc["mismatches"] == [[1, 0]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build(name, 3)["ops"] != workloads.build(name, 4)["ops"]


def test_import_times_parse():
    err = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   json",
        "import time:      2000 |       5000 |     scipy.special",
        "import time:       300 |       1000 |   scipy",
        "import time:       500 |      90000 | svgeom",
        "import time:        50 |         50 | svgeom.cli",
    ])
    assert run.import_times(err) == (pytest.approx(0.09005),
                                     pytest.approx(0.0023))


def _manifest():
    import json
    from pathlib import Path

    return json.loads((Path(run.__file__).parent / "manifest.json").read_text())


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_manifest_counts_match_the_generated_workloads(seed):
    for name, facts in _manifest()["workloads"].items():
        ops = workloads.build(name, seed)["ops"]
        assert facts["operations_per_pass"] == len(ops)
        assert facts["mc_samples_per_pass"] == workloads.samples_per_pass(ops)


def test_manifest_predictions_name_reported_metrics():
    layer = {name for name, _ in run.per_layer_metrics()}
    end_to_end = {name for name, _ in run.END_TO_END}
    manifest = _manifest()
    for entry in manifest["predictions"]:
        assert set(entry["per_layer"]) <= layer, entry["name"]
        assert all(m in end_to_end or m.endswith("(report)")
                   for m in entry["should_move"]), entry["name"]
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)
    assert {b["workload"] for b in manifest["bypasses"]} <= set(
        workloads.WORKLOADS)


def test_benchmark_json_lists_the_reported_metrics():
    import json
    from pathlib import Path

    path = Path(run.__file__).resolve().parent.parent / "BENCHMARK.json"
    bench = json.loads(path.read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
