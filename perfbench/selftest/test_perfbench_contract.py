"""BENCHMARK.json names exactly the metrics the runner reports."""

from __future__ import annotations

import json
import re

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SmallTc(workloads.TcRoad):
    SIDE = 5


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_untraced_run_reports_every_end_to_end_metric():
    case = run.Run(SmallTc(seed=0), started=run.time.perf_counter())
    metrics, samples = run.measure_untraced(case, seconds=0.0)
    assert len(samples) >= run.MIN_OPS
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert case.failed == 0 and case.attempted == len(samples) + run.WARMUP_OPS


def test_set_up_groups_leave_the_operations_state_alone():
    case = run.Run(SmallTc(seed=0), started=run.time.perf_counter())
    case.workload.setup()
    engine = case.workload.engine
    calls = []
    case.setup_group(lambda fn: calls.append(fn()), 3)
    assert calls == [None]
    assert case.workload.engine is engine and case.spare.engine is None


def test_a_wrong_warm_up_operation_fails_the_run():
    class WrongFirstTc(SmallTc):
        def check(self, op, database, output):
            return op != 0 and super().check(op, database, output)

    case = run.Run(WrongFirstTc(seed=0), started=run.time.perf_counter())
    run.measure_untraced(case, seconds=0.0)
    assert case.failed == 1


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "HERE", tmp_path)
    case = run.Run(SmallTc(seed=0), started=run.time.perf_counter())
    metrics, _ = run.measure_traced(case, seconds=0.0, seed=0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    attributed = sum(metrics[name][0] for name in run.SELF_METRICS.values())
    assert abs(attributed - metrics["trace.op_s"][0]) < 1e-9
    assert metrics["runtime.advance_self_s"][0] > 0
    assert (tmp_path / "out" / "spans-tc-road-seed0.json.gz").exists()
