"""The benchmark's four workloads, each driving Lobster's public API.

A workload makes its inputs from the seed, then exposes four steps the
runner sequences: ``setup`` (timed as ``setup_s``: everything before the
first operation), ``prepare`` (untimed per-operation input staging),
``operation`` (timed) and ``check`` (untimed, against an independent
reference from :mod:`reference`).  ``work`` counts the units of work one
operation did, for ``work_per_s``.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro import LobsterEngine, MaterializedView, ProgramCache, RelationStream, SlidingWindow
from repro.provenance import registry
from repro.workloads import pathfinder
from repro.workloads.analytics import CSPA, TRANSITIVE_CLOSURE
from repro.workloads.graphs import road_grid

import reference


class Workload:
    name = ""
    provenance = ""
    provenance_kwargs: dict = {}
    #: What ``work`` counts.
    work_unit = ""

    def provenance_class(self) -> type:
        return type(registry.create(self.provenance, **self.provenance_kwargs))

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what the last set-up built, before the next one starts
        (untimed), so that the next set-up neither holds it in memory
        nor pays for collecting it."""
        self.engine = None

    def prepare(self, op: int):
        return None

    def operation(self, prepared):
        raise NotImplementedError

    def check(self, op: int, prepared, output) -> bool:
        raise NotImplementedError

    def finish(self) -> bool:
        """A last check of state carried across operations."""
        return True

    def describe(self) -> str:
        raise NotImplementedError

    def work(self, prepared, output) -> int:
        raise NotImplementedError

    def _engine(self, source: str, **kwargs) -> LobsterEngine:
        # A fresh cache per set-up: every set-up pays the whole front end.
        return LobsterEngine(
            source,
            provenance=self.provenance,
            cache=ProgramCache(),
            **self.provenance_kwargs,
            **kwargs,
        )


# ---------------------------------------------------------------------------


class TcRoad(Workload):
    """Cold transitive closure of a near-planar road grid."""

    name = "tc-road"
    provenance = "unit"
    work_unit = "path rows"
    SIDE = 16

    def __init__(self, seed: int):
        self.edges = road_grid(self.SIDE, seed)
        self.n_nodes = self.SIDE * self.SIDE

    def describe(self) -> str:
        return f"road_grid({self.SIDE}): {self.n_nodes} nodes, {len(self.edges)} edges"

    def _load(self):
        database = self.engine.create_database()
        database.add_facts("edge", self.edges)
        database.finalize()
        return database

    def setup(self) -> None:
        self.engine = self._engine(TRANSITIVE_CLOSURE)
        self._load()

    def prepare(self, op: int):
        return self._load()

    def operation(self, database):
        return self.engine.run(database)

    def check(self, op, database, output) -> bool:
        return reference.all_pairs_ok(database.result("path").columns, self.n_nodes)

    def work(self, database, output) -> int:
        return database.result("path").n_rows


# ---------------------------------------------------------------------------


CSPA_RELATIONS = ("value_flow", "memory_alias", "value_alias")


def cspa_modules(seed: int, modules: int, n: int):
    """A CSPA fact base of ``modules`` disjoint program modules with
    ``n`` variables each, generated like ``cspa_instance`` (forward-biased
    ``assign`` edges, sparse ``dereference`` edges).  One module's closure
    cost swings by an order of magnitude between seeds; a sum over many
    small modules keeps the cost of one instance steady.  Probabilities
    lie on a 1e-6 grid in [0.5, 1], so any two differ by more than the
    engine's saturation epsilon and max-min results are exact."""
    rng = np.random.default_rng(seed)
    assign: list[tuple[int, int]] = []
    dereference: list[tuple[int, int]] = []
    for module in range(modules):
        base = module * n
        src = rng.integers(0, n, size=int(n * 1.35))
        dst = (src * rng.uniform(0.0, 1.0, size=len(src))).astype(np.int64)
        assign += [(base + int(a), base + int(b)) for a, b in zip(src, dst) if a != b]
        pointers = rng.integers(0, n, size=int(n * 0.28))
        objects = rng.integers(0, n, size=len(pointers))
        dereference += [(base + int(p), base + int(o)) for p, o in zip(pointers, objects)]
    assign = sorted(set(assign))
    dereference = sorted(set(dereference))

    def probs(count):
        return rng.integers(500_000, 1_000_001, size=count) / 1e6

    return assign, probs(len(assign)), dereference, probs(len(dereference))


class CspaProb(Workload):
    """Cold CSPA fixpoints under minmaxprob, a fresh instance each time."""

    name = "cspa-prob"
    provenance = "minmaxprob"
    work_unit = "derived rows"
    MODULES = 16
    VARS = 20

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> str:
        return f"{self.MODULES} modules x {self.VARS} variables, a fresh instance per operation"

    def instance(self, op: int):
        return cspa_modules(self.seed * 1_000_003 + op, self.MODULES, self.VARS)

    def _load(self, op: int):
        assign, assign_probs, dereference, dereference_probs = self.instance(op)
        database = self.engine.create_database()
        database.add_facts("assign", assign, probs=assign_probs)
        database.add_facts("dereference", dereference, probs=dereference_probs)
        database.finalize()
        return database

    def setup(self) -> None:
        self.engine = self._engine(CSPA)
        self._load(0)

    def prepare(self, op: int):
        return op, self._load(op)

    def operation(self, prepared):
        return self.engine.run(prepared[1])

    def expected(self, op: int) -> dict[str, np.ndarray]:
        """Block-diagonal reference matrices over all modules."""
        assign, assign_probs, dereference, dereference_probs = self.instance(op)
        n, total = self.VARS, self.MODULES * self.VARS
        out = {name: np.zeros((total, total)) for name in CSPA_RELATIONS}
        for module in range(self.MODULES):
            lo, hi = module * n, (module + 1) * n

            def local(rows, probs):
                keep = [i for i, (a, _) in enumerate(rows) if lo <= a < hi]
                return [(rows[i][0] - lo, rows[i][1] - lo) for i in keep], [probs[i] for i in keep]

            fixpoint = reference.cspa_maxmin(
                n, *local(assign, assign_probs), *local(dereference, dereference_probs)
            )
            for name in CSPA_RELATIONS:
                out[name][lo:hi, lo:hi] = fixpoint[name]
        return out

    def check(self, op, prepared, output) -> bool:
        database = prepared[1]
        expected = self.expected(prepared[0])
        total = self.MODULES * self.VARS
        for name in CSPA_RELATIONS:
            table = database.result(name)
            got = reference.relation_matrix(
                table.columns, database.provenance.prob(table.tags), total
            )
            if got is None or not np.array_equal(got, expected[name]):
                return False
        return True

    def work(self, prepared, output) -> int:
        return sum(prepared[1].result(name).n_rows for name in CSPA_RELATIONS)


# ---------------------------------------------------------------------------


class TrainBatched(Workload):
    """Pathfinder training steps: perception → batched reasoning → loss
    → backward through the proofs → SGD."""

    name = "train-batched"
    provenance = "diff-top-1-proofs"
    provenance_kwargs = {"proof_capacity": 64}
    work_unit = "samples"
    GRID = 6
    BATCH = 4
    EPISODE = 50
    RELATION = "endpoints_connected"

    def __init__(self, seed: int):
        self.seed = seed
        self.edges = pathfinder.lattice_edges(self.GRID)

    def describe(self) -> str:
        return (f"grid {self.GRID}, {self.BATCH} samples per step, "
                f"proof capacity {self.provenance_kwargs['proof_capacity']}")

    def batch(self, op: int):
        return [
            pathfinder.generate_instance(
                self.GRID, self.seed * 1_000_003 + op * self.BATCH + j, positive=bool(j % 2)
            )
            for j in range(self.BATCH)
        ]

    def _load(self, samples, probs):
        database = self.engine.create_database()
        n_edges = len(self.edges)
        ids = []
        for s, sample in enumerate(samples):
            ids.append(self.engine.add_batch_facts(
                database, "edge", s, self.edges, probs[s * n_edges:(s + 1) * n_edges]
            ))
            self.engine.add_batch_facts(
                database, "is_endpoint", s, [(sample.endpoints[0],), (sample.endpoints[1],)]
            )
        return database, np.concatenate(ids)

    def setup(self) -> None:
        # The scorer starts from fixed weights (a checkpoint, not an input)
        # and every EPISODE steps training restarts from them, so the
        # probabilities, and with them the fixpoint's work per step, are
        # the same across seeds and over a run: a faster program that
        # completes more steps is not charged for a later, costlier phase
        # of training.  The seed draws the samples.
        self.scorer = nn.PatchScorer(pathfinder.FEATURE_DIM, 16, np.random.default_rng(0))
        self.checkpoint = [p.data.copy() for p in self.scorer.parameters()]
        self.optimizer = nn.SGD(self.scorer.parameters(), lr=0.05)
        self.engine = self._engine(pathfinder.PROGRAM, batched=True)
        samples = self.batch(0)
        features = np.concatenate([s.edge_features for s in samples])
        database, _ = self._load(samples, self.scorer(nn.Tensor(features)).data)
        database.finalize()

    def prepare(self, op: int):
        if op % self.EPISODE == 0:
            for param, saved in zip(self.scorer.parameters(), self.checkpoint):
                param.data[...] = saved
        samples = self.batch(op)
        features = np.concatenate([s.edge_features for s in samples])
        labels = np.array([float(s.label) for s in samples])
        return samples, features, labels

    def operation(self, prepared):
        samples, features, labels = prepared
        probs = self.scorer(nn.Tensor(features))
        database, fact_ids = self._load(samples, probs.data)
        self.engine.run(database)
        by_sample = self.engine.query_by_sample(database, self.RELATION)
        outputs = nn.Tensor(
            [by_sample.get(s, {}).get((), 0.0) for s in range(len(samples))],
            requires_grad=True,
        )
        nn.binary_cross_entropy(outputs, labels).backward()
        grad_facts = self.engine.backward(
            database, self.RELATION,
            {(s,): float(g) for s, g in enumerate(outputs.grad)},
        )
        grad_probs = grad_facts[fact_ids]
        self.optimizer.zero_grad()
        probs.backward(grad_probs)
        self.optimizer.step()
        return probs.data, outputs.data, outputs.grad, grad_probs

    def check(self, op, prepared, output) -> bool:
        samples = prepared[0]
        probs, outputs, grad_out, grad_probs = output
        n_edges = len(self.edges)
        for s, sample in enumerate(samples):
            window = slice(s * n_edges, (s + 1) * n_edges)
            expected, expected_grad = reference.pathfinder_reference(
                self.GRID * self.GRID, self.edges, probs[window],
                sample.endpoints, float(grad_out[s]),
            )
            if not np.isclose(outputs[s], expected, rtol=1e-9, atol=0.0):
                return False
            scale = max(1.0, float(np.abs(expected_grad).max()))
            if not np.allclose(grad_probs[window], expected_grad, rtol=0.0, atol=1e-9 * scale):
                return False
        return True

    def work(self, prepared, output) -> int:
        return len(prepared[0])


# ---------------------------------------------------------------------------


def backbone_edges(n: int) -> list[tuple[int, int]]:
    """A chain with skip edges every 9 nodes."""
    return [(i, i + 1) for i in range(n)] + [(i, i + 7) for i in range(0, n - 7, 9)]


class StreamChurn(Workload):
    """A sliding-window transitive-closure view: every tick retracts the
    expired edges, inserts the new ones and diffs the view."""

    name = "stream-churn"
    provenance = "unit"
    work_unit = "facts inserted or retracted"
    BACKBONE = 220
    WINDOW = 24
    PER_TICK = 2
    CHECK_EVERY = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.backbone = backbone_edges(self.BACKBONE)
        leaves = [(i, 1000 + i) for i in range(self.BACKBONE)]
        # Forward shortcuts change no reachability, but retracting one
        # over-deletes every path through it before re-deriving them.
        # Placed mid-backbone, each such blast radius is of similar size;
        # about a third of the ticks retract one, so p90 lies inside the
        # slow mode, not on its edge.
        n = self.BACKBONE
        shortcuts = [(i, i + 5) for i in range(n // 4, 3 * n // 4, 2)]
        self.churn = leaves + shortcuts

    def describe(self) -> str:
        return (f"backbone {self.BACKBONE}, window {self.WINDOW} ticks, "
                f"{self.PER_TICK} of {len(self.churn)} churn edges per tick")

    def release(self) -> None:
        self.engine = self.view = self.window = None

    def setup(self) -> None:
        # The window fills before the view exists: its live edges join
        # the backbone in one cold fixpoint, which the view then
        # maintains tick by tick.
        self.window = SlidingWindow(
            RelationStream("edge", self.churn, self.PER_TICK, seed=self.seed), self.WINDOW
        )
        for _ in range(self.WINDOW):
            self.window.advance()
        self.engine = self._engine(TRANSITIVE_CLOSURE)
        database = self.engine.create_database()
        database.add_facts("edge", self.backbone + self.window.live_rows("edge"))
        self.engine.run(database)
        self.view = MaterializedView(self.engine, database=database)

    def operation(self, prepared):
        delta = self.window.advance()
        return delta, self.view.apply(delta)

    def check(self, op, prepared, output) -> bool:
        return op % self.CHECK_EVERY != 0 or self.finish()

    def finish(self) -> bool:
        state = self.view.result("path")
        expected = reference.closure_pairs(self.window.live_rows("edge") + self.backbone)
        return set(state) == expected and all(p == 1.0 for p in state.values())

    def work(self, prepared, output) -> int:
        delta = output[0]
        inserted = sum(len(rows) for rows, _ in delta.inserts.values())
        return inserted + sum(len(rows) for rows in delta.retracts.values())


WORKLOADS = {w.name: w for w in (TcRoad, CspaProb, TrainBatched, StreamChurn)}
