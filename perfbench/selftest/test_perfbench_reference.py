"""The references agree with the repo's CPU stand-ins, and a corrupted
row or probability in Lobster's output is counted as a failure."""

from __future__ import annotations

import numpy as np
import pytest

import measure
import reference
import run
import workloads
from repro.baselines import ScallopInterpreter, SouffleEngine
from repro.workloads import pathfinder
from repro.workloads.analytics import CSPA, TRANSITIVE_CLOSURE


class SmallTc(workloads.TcRoad):
    SIDE = 5


class SmallCspa(workloads.CspaProb):
    MODULES = 2
    VARS = 12


class SmallTrain(workloads.TrainBatched):
    GRID = 4
    BATCH = 2


class SmallStream(workloads.StreamChurn):
    BACKBONE = 30
    WINDOW = 4


def one_operation(workload, op=0):
    workload.setup()
    prepared = workload.prepare(op)
    return prepared, workload.operation(prepared)


# ---------------------------------------------------------------------------
# tc-road


def test_all_pairs_reference_accepts_the_closure_and_rejects_a_corrupted_row():
    workload = SmallTc(seed=3)
    database, output = one_operation(workload)
    assert workload.check(0, database, output)
    columns = [c.copy() for c in database.result("path").columns]
    columns[1][7] = columns[1][8]  # one row now duplicates its neighbour
    assert not reference.all_pairs_ok(columns, workload.n_nodes)
    assert not reference.all_pairs_ok([c[:-1] for c in database.result("path").columns], workload.n_nodes)


def test_a_corrupted_row_counts_as_a_failed_operation():
    class CorruptTc(SmallTc):
        def operation(self, database):
            result = super().operation(database)
            database.relation("path").full.columns[0][0] += 1
            return result

    good, bad = run.Run(SmallTc(seed=1), 0.0), run.Run(CorruptTc(seed=1), 0.0)
    for case in (good, bad):
        case.workload.setup()
        case.step(measure.Normalized(measure.HostProbe()))
    assert (good.attempted, good.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (1, 1)


# ---------------------------------------------------------------------------
# cspa-prob


@pytest.mark.parametrize("seed", [2, 5])
def test_maxmin_reference_meets_the_threshold_property_against_souffle(seed):
    """Rows whose max-min probability is ≥ θ are exactly the discrete
    CSPA fixpoint (Soufflé stand-in) of the inputs with probability ≥ θ."""
    n = 12
    assign, assign_probs, deref, deref_probs = workloads.cspa_modules(seed, 1, n)
    expected = reference.cspa_maxmin(n, assign, assign_probs, deref, deref_probs)
    assert expected["value_alias"].any()
    for theta in (0.5, 0.7, 0.85):
        engine = SouffleEngine(CSPA)
        database = engine.create_database()
        database["assign"] = {row for row, p in zip(assign, assign_probs) if p >= theta}
        database["dereference"] = {row for row, p in zip(deref, deref_probs) if p >= theta}
        engine.run(database)
        for name in workloads.CSPA_RELATIONS:
            xs, ys = np.nonzero(expected[name] >= theta)
            assert set(zip(xs.tolist(), ys.tolist())) == database.get(name, set()), (name, theta)


def test_cspa_check_rejects_a_corrupted_probability_and_row():
    workload = SmallCspa(seed=4)
    prepared, output = one_operation(workload)
    assert workload.check(0, prepared, output)
    full = prepared[1].relation("value_alias").full
    full.tags[3] = full.tags[3] * 0.999
    assert not workload.check(0, prepared, output)
    full.tags[3] = full.tags[3] / 0.999
    assert workload.check(0, prepared, output)
    full.columns[1][3] = full.columns[1][3] + 1
    assert not workload.check(0, prepared, output)


# ---------------------------------------------------------------------------
# train-batched


def scallop_top1(instance, probs):
    """Output probability and per-edge gradient (for d loss/d out = 1)
    from the Scallop stand-in's top-k-proofs tags with k = 1."""
    interpreter = ScallopInterpreter(pathfinder.PROGRAM, provenance="top-k-proofs", k=1)
    database = interpreter.create_database()
    ids = pathfinder.populate_database(database, instance, probs)
    interpreter.run(database)
    inputs = database.provenance.input_probs
    proof = max(database.rows("endpoints_connected")[()],
                key=lambda p: float(np.prod(inputs[list(p)])))
    members = sorted(proof)
    grad_facts = np.zeros(len(inputs))
    for member in members:
        grad_facts[member] = float(np.prod(inputs[[m for m in members if m != member]]))
    return float(np.prod(inputs[members])), grad_facts[ids]


@pytest.mark.parametrize("seed", [0, 1])
def test_dijkstra_reference_matches_scallop_top1(seed):
    instance = pathfinder.generate_instance(4, seed=seed, positive=bool(seed))
    probs = pathfinder.pretrained_edge_probs(instance, noise=0.4, seed=seed)
    expected_prob, expected_grad = scallop_top1(instance, probs)
    prob, grad = reference.pathfinder_reference(
        16, instance.lattice_edges, probs, instance.endpoints, 1.0
    )
    assert prob == pytest.approx(expected_prob, rel=1e-12)
    np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=1e-12)


def test_train_check_rejects_a_corrupted_output_and_gradient():
    workload = SmallTrain(seed=2)
    prepared, output = one_operation(workload)
    assert workload.check(0, prepared, output)
    probs, outputs, grad_out, grad_probs = output
    bad_outputs = outputs.copy()
    bad_outputs[1] *= 1.001
    assert not workload.check(0, prepared, (probs, bad_outputs, grad_out, grad_probs))
    bad_grad = grad_probs.copy()
    bad_grad[np.flatnonzero(bad_grad)[0]] *= 2
    assert not workload.check(0, prepared, (probs, outputs, grad_out, bad_grad))


# ---------------------------------------------------------------------------
# stream-churn


def test_closure_reference_matches_souffle():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)]
    engine = SouffleEngine(TRANSITIVE_CLOSURE)
    database = engine.create_database()
    database["edge"] = set(edges)
    engine.run(database)
    assert reference.closure_pairs(edges) == database["path"]


def test_stream_check_rejects_a_missing_row(monkeypatch):
    workload = SmallStream(seed=5)
    workload.setup()
    for op in range(6):
        workload.check(op, None, workload.operation(None))
    assert workload.finish()
    state = workload.view.result("path")
    state.pop(next(iter(state)))
    monkeypatch.setattr(workload.view, "result", lambda relation: dict(state))
    assert not workload.finish()
