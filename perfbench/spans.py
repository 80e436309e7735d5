"""In-memory spans around the program's layer entry points.

A traced phase installs wrappers on the public entry points of each
layer (class methods and module functions, patched where they are looked
up), records one span per call — name, start, end, parent span and
operation id — and restores every original when the phase ends.  Nothing
under ``src/`` changes, and an untraced run installs nothing.

A layer's *self time* is its span's duration minus the durations of its
direct child spans, so the self times of every span under one operation's
root span sum exactly to the root's duration.  The root's own self time
is the time no wrapped layer accounts for: the explicit unattributed
remainder.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from dataclasses import dataclass
from typing import Callable

#: Span name of an operation's root span and of a set-up's root span.
OP_ROOT = "op"
SETUP_ROOT = "setup"


class SpanRecorder:
    """Spans and per-operation counters, kept in memory until written.

    Spans are parallel lists (one entry per span, appended in start
    order, so a parent always precedes its children)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        #: Operation id new spans belong to (set by :meth:`root`).
        self.op = 0
        #: op id -> counter name -> value, for counts taken at the
        #: same boundaries as the spans.
        self.counters: dict[int, dict[str, float]] = {}

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        counts = self.counters.setdefault(self.op, {})
        counts[counter] = counts.get(counter, 0.0) + value

    def high_water(self, counter: str, value: float) -> None:
        counts = self.counters.setdefault(self.op, {})
        counts[counter] = max(counts.get(counter, 0.0), value)

    def root(self, name: str, op: int, fn: Callable[[], object]) -> object:
        """Run ``fn`` under a root span of operation ``op``."""
        self.op = op
        index = self.begin(name)
        try:
            return fn()
        finally:
            self.end(index)

    def write(self, path) -> None:
        """Write every span (gzip-compressed JSON, columnar)."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        payload = {
            "names": table,
            "name": [ids[name] for name in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "op": self.ops,
            "counters": {str(op): c for op, c in self.counters.items()},
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)


@dataclass(frozen=True)
class Scope:
    """Self times, call counts and inclusive times of the spans under
    one kind of root, each summed over the roots (``n`` of them)."""

    n: int
    self_s: dict[str, float]
    calls: dict[str, int]
    inclusive_s: dict[str, float]
    counters: dict[str, float]


def summarize(recorder: SpanRecorder, root: str) -> Scope:
    """Aggregate the spans of every operation whose root span is named
    ``root``.  ``inclusive_s`` counts only spans with no same-named
    ancestor, so nested calls of one layer are not counted twice."""
    names, parents = recorder.names, recorder.parents
    durations = [end - start for start, end in zip(recorder.starts, recorder.ends)]
    child_s = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_s[parent] += durations[index]
    in_scope = [False] * len(names)
    same_name_above = [False] * len(names)
    ops: set[int] = set()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive_s: dict[str, float] = {}
    for index, name in enumerate(names):
        parent = parents[index]
        if parent < 0:
            in_scope[index] = name == root
            if in_scope[index]:
                ops.add(recorder.ops[index])
        else:
            in_scope[index] = in_scope[parent]
            same_name_above[index] = same_name_above[parent] or names[parent] == name
        if not in_scope[index]:
            continue
        self_s[name] = self_s.get(name, 0.0) + durations[index] - child_s[index]
        calls[name] = calls.get(name, 0) + 1
        if not same_name_above[index]:
            inclusive_s[name] = inclusive_s.get(name, 0.0) + durations[index]
    counters: dict[str, float] = {}
    for op in ops:
        for counter, value in recorder.counters.get(op, {}).items():
            counters[counter] = counters.get(counter, 0.0) + value
    return Scope(len(ops), self_s, calls, inclusive_s, counters)


# ---------------------------------------------------------------------------
# Patching


@dataclass(frozen=True)
class Patch:
    """One entry point to wrap: ``owner.attr`` (a class or a module)
    becomes a span named ``span``.  ``before``/``after`` take counts at
    the same boundary: ``before(recorder, args)`` runs before the call,
    ``after(recorder, args, result)`` after it."""

    owner: object
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


def _wrap(fn, patch: Patch, recorder: SpanRecorder):
    name, before, after = patch.span, patch.before, patch.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(recorder, args)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


class Installed:
    """Wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self, patches: list[Patch], recorder: SpanRecorder):
        self._saved: list[tuple[object, str, bool, object]] = []
        try:
            for patch in patches:
                owner, attr = patch.owner, patch.attr
                # A class may inherit the method: wrap what lookup finds,
                # but remember whether the owner held it itself so that
                # restoring does not leave a copy shadowing the base.
                inherited = isinstance(owner, type) and attr not in owner.__dict__
                original = None if inherited else vars(owner)[attr]
                self._saved.append((owner, attr, inherited, original))
                setattr(owner, attr, _wrap(getattr(owner, attr), patch, recorder))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, inherited, original = self._saved.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def layer_patches(provenance_class: type) -> list[Patch]:
    """The layer entry points every workload's traced phase wraps.

    Names imported into another module are patched in the importing
    module too (``lex_rank`` in ``gpu/hash_table.py``; the front-end
    passes in ``runtime/cache.py``); classes imported by name, such as
    ``HashIndex`` in ``apm/interpreter.py``, are wrapped through their
    methods, which every importer shares."""
    from repro.apm.interpreter import ApmInterpreter
    from repro.gpu import hash_table, kernels
    from repro.gpu.hash_table import HashIndex
    from repro.nn import SGD, PatchScorer, Tensor
    from repro.runtime import cache, relation
    from repro.runtime.database import Database
    from repro.runtime.engine import LobsterEngine
    from repro.runtime.relation import RowLocator, StoredRelation
    from repro.runtime.table import Table
    from repro.stream.view import MaterializedView
    from repro.stream.window import Window

    def advance_before(recorder, args):
        relation_, delta = args[0], args[1]
        recorder.add("delta_rows_offered", delta.n_rows)
        if delta.n_rows:
            recorder.add("rows_resorted", relation_.full.n_rows + delta.n_rows)

    def advance_after(recorder, args, frontier):
        recorder.add("rows_new_or_improved", frontier)

    def probe_after(recorder, args, result):
        recorder.add("join_out_rows", len(result[0]))

    def run_after(recorder, args, result):
        recorder.add("iterations", result.iterations)
        recorder.add("kernel_launches", result.profile.kernel_launches)
        recorder.add("modeled_busy_s", result.profile.busy_seconds)
        database = args[1]
        recorder.high_water(
            "tag_bytes",
            sum(rel.full.tags.nbytes for rel in database.relations.values()),
        )

    def apply_after(recorder, args, view_delta):
        recorder.add("ticks", 1)
        recorder.add("maintained_ticks", int(view_delta.maintained))
        recorder.add("view_changes", view_delta.change_count())

    return [
        Patch(cache, "parse", "datalog.frontend"),
        Patch(cache, "resolve", "datalog.frontend"),
        Patch(cache, "batch_transform", "datalog.frontend"),
        Patch(cache, "compile_program", "ram.plan"),
        Patch(cache, "compile_ram", "apm.lower"),
        Patch(cache, "optimize", "apm.lower"),
        Patch(LobsterEngine, "run", "runtime.run", after=run_after),
        Patch(ApmInterpreter, "run", "apm.interp"),
        Patch(ApmInterpreter, "maintain", "apm.interp"),
        Patch(ApmInterpreter, "_execute_variant", "apm.dispatch"),
        Patch(Database, "add_facts", "runtime.load"),
        Patch(Database, "retract_facts", "runtime.load"),
        Patch(Database, "finalize", "runtime.load"),
        Patch(LobsterEngine, "add_batch_facts", "runtime.load"),
        Patch(StoredRelation, "advance", "runtime.advance",
              before=advance_before, after=advance_after),
        Patch(relation, "dedup_table", "runtime.dedup"),
        Patch(StoredRelation, "remove_rows", "runtime.remove"),
        Patch(RowLocator, "__init__", "runtime.remove"),
        Patch(RowLocator, "contains", "runtime.remove"),
        Patch(RowLocator, "member_mask", "runtime.remove"),
        Patch(Table, "rows", "runtime.rows_to_python"),
        Patch(LobsterEngine, "query_probs", "runtime.rows_to_python"),
        Patch(LobsterEngine, "query_by_sample", "runtime.rows_to_python"),
        Patch(HashIndex, "__init__", "gpu.join"),
        Patch(HashIndex, "probe", "gpu.join", after=probe_after),
        Patch(HashIndex, "count", "gpu.join"),
        Patch(kernels, "lex_rank", "gpu.sort"),
        Patch(hash_table, "lex_rank", "gpu.sort"),
        Patch(kernels, "sort_rows", "gpu.sort"),
        Patch(kernels, "unique_rows", "gpu.sort"),
        Patch(provenance_class, "otimes", "provenance.otimes"),
        Patch(provenance_class, "oplus_reduce", "provenance.oplus"),
        Patch(provenance_class, "merge_existing", "provenance.oplus"),
        Patch(provenance_class, "backward", "provenance.backward"),
        Patch(PatchScorer, "forward", "nn.step"),
        Patch(Tensor, "backward", "nn.step"),
        Patch(SGD, "step", "nn.step"),
        Patch(SGD, "zero_grad", "nn.step"),
        Patch(MaterializedView, "apply", "stream.apply", after=apply_after),
        Patch(Window, "advance", "stream.window"),
    ]
