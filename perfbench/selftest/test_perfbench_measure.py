"""Percentile selection, spread and self-time arithmetic."""

from __future__ import annotations

import statistics
import types

import pytest

import measure
import spans


def test_tail_needs_ten_samples_beyond_it():
    assert measure.tail_percentile([1.0] * 99) is None
    samples = [float(i) for i in range(100)]
    assert measure.tail_percentile(samples) == statistics.quantiles(samples, n=100)[89]
    assert measure.tail_percentile(samples, percent=95) is None
    assert measure.tail_percentile(samples * 2, percent=95) is not None


def test_tail_has_at_least_ten_samples_beyond_it():
    for n in (100, 137, 250):
        samples = [float(i) for i in range(n)]
        p90 = measure.tail_percentile(samples)
        assert sum(s > p90 for s in samples) >= 10


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / median)
    assert measure.spread([2.0] * 10) == 0.0


def recorded(layout):
    """A recorder holding spans given as (name, start, end, parent, op)."""
    recorder = spans.SpanRecorder()
    for name, start, end, parent, op in layout:
        recorder.names.append(name)
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
        recorder.ops.append(op)
    return recorder


def test_self_time_is_duration_minus_direct_children():
    recorder = recorded([
        ("op", 0.0, 10.0, -1, 1),
        ("runtime.run", 1.0, 9.0, 0, 1),
        ("gpu.sort", 2.0, 4.0, 1, 1),
        ("gpu.sort", 2.5, 3.0, 2, 1),  # nested call of the same layer
        ("gpu.join", 5.0, 8.0, 1, 1),
        ("op", 20.0, 24.0, -1, 2),
        ("gpu.join", 21.0, 22.0, 5, 2),
        ("setup", 30.0, 31.0, -1, -1),
        ("gpu.join", 30.0, 30.5, 7, -1),
    ])
    scope = spans.summarize(recorder, spans.OP_ROOT)
    assert scope.n == 2
    assert scope.self_s == pytest.approx({
        "op": (10.0 - 8.0) + (4.0 - 1.0),
        "runtime.run": 8.0 - 2.0 - 3.0,
        "gpu.sort": (2.0 - 0.5) + 0.5,
        "gpu.join": 3.0 + 1.0,
    })
    # Self times under each root sum to the roots' durations.
    assert sum(scope.self_s.values()) == pytest.approx(10.0 + 4.0)
    # Inclusive time counts the outermost call of a layer only.
    assert scope.inclusive_s["gpu.sort"] == pytest.approx(2.0)
    assert scope.calls == {"op": 2, "runtime.run": 1, "gpu.sort": 2, "gpu.join": 2}
    assert spans.summarize(recorder, spans.SETUP_ROOT).self_s == pytest.approx(
        {"setup": 0.5, "gpu.join": 0.5}
    )


class Base:
    def inherited(self, x):
        return x + 1


class Child(Base):
    def own(self, x):
        return x * 2


def test_patches_record_spans_and_restore_every_original():
    module = types.SimpleNamespace(function=lambda x: -x)
    original_own, original_function = Child.__dict__["own"], module.function
    recorder = spans.SpanRecorder()
    counts = []
    patches = [
        spans.Patch(Child, "own", "layer.own", after=lambda r, args, result: counts.append(result)),
        spans.Patch(Child, "inherited", "layer.inherited"),
        spans.Patch(module, "function", "layer.function"),
    ]
    installed = spans.Installed(patches, recorder)
    child = Child()
    assert recorder.root(spans.OP_ROOT, 1, lambda: child.own(child.inherited(module.function(3)))) == -4
    installed.restore()
    assert recorder.names == ["op", "layer.function", "layer.inherited", "layer.own"]
    assert recorder.parents == [-1, 0, 0, 0]
    assert counts == [-4]
    assert Child.__dict__["own"] is original_own
    assert "inherited" not in Child.__dict__
    assert module.function is original_function


def test_layer_patches_install_and_restore_on_the_engine():
    from repro import LobsterEngine, ProgramCache
    from repro.gpu import hash_table, kernels
    from repro.provenance.unit import UnitProvenance

    before = {
        "run": LobsterEngine.__dict__["run"],
        "lex_rank": kernels.lex_rank,
        "hash_lex_rank": hash_table.lex_rank,
    }
    recorder = spans.SpanRecorder()
    installed = spans.Installed(spans.layer_patches(UnitProvenance), recorder)
    try:
        def operation():
            engine = LobsterEngine("rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).",
                                   cache=ProgramCache())
            database = engine.create_database()
            database.add_facts("edge", [(0, 1), (1, 2), (2, 3)])
            engine.run(database)
            return database

        database = recorder.root(spans.OP_ROOT, 1, operation)
    finally:
        installed.restore()
    assert len(database.result("path").rows()) == 6
    assert LobsterEngine.__dict__["run"] is before["run"]
    assert kernels.lex_rank is before["lex_rank"]
    assert hash_table.lex_rank is before["hash_lex_rank"]
    assert "otimes" in UnitProvenance.__dict__ and "backward" not in UnitProvenance.__dict__
    scope = spans.summarize(recorder, spans.OP_ROOT)
    for layer in ("datalog.frontend", "ram.plan", "apm.lower", "runtime.run",
                  "apm.dispatch", "runtime.advance", "gpu.join", "gpu.sort"):
        assert scope.calls.get(layer), layer
    assert sum(scope.self_s.values()) == pytest.approx(scope.inclusive_s[spans.OP_ROOT])
    assert scope.counters["iterations"] >= 3
