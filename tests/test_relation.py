"""StoredRelation semi-naive partition / advance semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LobsterEngine
from repro.gpu import kernels
from repro.provenance import create
from repro.runtime.relation import RowLocator, StoredRelation
from repro.runtime.table import Table
from repro.stats.relation_stats import RelationStats

from _helpers import TC_PROGRAM

INT2 = (np.dtype(np.int64), np.dtype(np.int64))


def make_relation(provenance_name="unit", **kwargs):
    provenance = create(provenance_name, **kwargs)
    provenance.setup(np.array([0.9, 0.5, 0.3]))
    return StoredRelation("r", INT2, provenance), provenance


def table_from(rows, provenance, tag_ids=None):
    if tag_ids is None:
        tags = provenance.one_tags(len(rows))
    else:
        tags = provenance.input_tags(np.array(tag_ids))
    return Table.from_rows(rows, INT2, tags)


class TestAdvance:
    def test_new_facts_become_frontier(self):
        rel, prov = make_relation()
        n = rel.advance(table_from([(1, 2), (3, 4)], prov))
        assert n == 2
        assert rel.n_facts() == 2
        assert rel.n_recent() == 2

    def test_duplicates_within_delta_collapse(self):
        rel, prov = make_relation()
        n = rel.advance(table_from([(1, 2), (1, 2), (1, 2)], prov))
        assert n == 1 and rel.n_facts() == 1

    def test_rediscovered_fact_not_recent(self):
        rel, prov = make_relation()
        rel.advance(table_from([(1, 2)], prov))
        n = rel.advance(table_from([(1, 2)], prov))
        assert n == 0
        assert rel.n_facts() == 1
        assert rel.n_recent() == 0

    def test_empty_delta_clears_frontier(self):
        rel, prov = make_relation()
        rel.advance(table_from([(1, 2)], prov))
        assert rel.n_recent() == 1
        rel.advance(Table.empty(INT2, prov))
        assert rel.n_recent() == 0

    def test_full_stays_sorted(self):
        rel, prov = make_relation()
        rel.advance(table_from([(5, 0), (1, 9)], prov))
        rel.advance(table_from([(3, 3), (0, 0)], prov))
        rows = rel.snapshot("full").rows()
        assert rows == sorted(rows)

    def test_partitions_disjoint_and_complete(self):
        rel, prov = make_relation()
        rel.advance(table_from([(1, 1)], prov))
        rel.advance(table_from([(2, 2)], prov))
        recent = set(rel.snapshot("recent").rows())
        stable = set(rel.snapshot("stable").rows())
        full = set(rel.snapshot("full").rows())
        assert recent == {(2, 2)}
        assert stable == {(1, 1)}
        assert recent | stable == full

    def test_tag_improvement_reenters_frontier(self):
        rel, prov = make_relation("minmaxprob")
        rel.advance(table_from([(1, 2)], prov, tag_ids=[2]))  # prob 0.3
        n = rel.advance(table_from([(1, 2)], prov, tag_ids=[0]))  # prob 0.9
        assert n == 1
        assert prov.prob(rel.snapshot("full").tags)[0] == pytest.approx(0.9)

    def test_tag_no_improvement_stays_stable(self):
        rel, prov = make_relation("minmaxprob")
        rel.advance(table_from([(1, 2)], prov, tag_ids=[0]))  # 0.9
        n = rel.advance(table_from([(1, 2)], prov, tag_ids=[2]))  # 0.3
        assert n == 0
        assert prov.prob(rel.snapshot("full").tags)[0] == pytest.approx(0.9)

    def test_absorbing_zero_facts_dropped(self):
        rel, prov = make_relation("minmaxprob")
        table = table_from([(1, 2)], prov)
        table.tags[:] = 0.0
        n = rel.advance(table)
        assert n == 0 and rel.n_facts() == 0

    def test_arity_zero_relation(self):
        provenance = create("unit")
        provenance.setup(np.zeros(0))
        rel = StoredRelation("flag", (), provenance)
        n = rel.advance(Table([], provenance.one_tags(3), 3))
        assert n == 1
        assert rel.n_facts() == 1
        n = rel.advance(Table([], provenance.one_tags(1), 1))
        assert n == 0

    def test_set_facts_marks_recent(self):
        rel, prov = make_relation()
        rel.set_facts(table_from([(1, 2), (3, 4)], prov))
        assert rel.n_recent() == 2


# ---------------------------------------------------------------------------
# The merge path against a tuple-at-a-time reference fold


MERGE_PROVENANCES = ["unit", "minmaxprob", "addmultprob", "prob-top-1-proofs"]
#: Input fact probabilities; fact 2 has probability 0, so its tag is the
#: absorbing zero of the probabilistic semirings.
MERGE_PROBS = np.array([0.9, 0.5, 0.0, 0.3, 0.7])
WIDE = [-(2**62), -1, 0, 1, 2**62]


def _value(kind, scale):
    """Second-column values per case kind: "int" rows pack, and a delta
    drawn at a larger ``scale`` outgrows the basis of earlier ones;
    "float" and "wide" (a span over 63 bits) rows cannot pack."""
    if kind == "float":
        return st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.25])
    if kind == "wide":
        return st.sampled_from(WIDE)
    return st.integers(-(2**scale), 2**scale)


@st.composite
def merge_steps(draw):
    kind = draw(st.sampled_from(["int", "float", "wide"]))
    steps = []
    for scale in sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))):
        # Some advances first see their ``full`` replaced from outside
        # (a restored checkpoint, a shard clone).
        replace = draw(st.sampled_from([None, None, "restore", "clone"]))
        rows = draw(
            st.lists(
                st.tuples(st.integers(-3, 3), _value(kind, scale)),
                min_size=1,
                max_size=12,
            )
        )
        fact_ids = draw(
            st.lists(st.integers(-1, len(MERGE_PROBS) - 1), min_size=len(rows), max_size=len(rows))
        )
        steps.append((replace, rows, fact_ids))
    return kind, steps


def _merge_relation(provenance_name, kind):
    provenance = create(provenance_name)
    provenance.setup(MERGE_PROBS)
    second = np.dtype(np.float64) if kind == "float" else np.dtype(np.int64)
    dtypes = (np.dtype(np.int64), second)
    rel = StoredRelation("r", dtypes, provenance)
    rel.enable_stats()
    return rel, provenance


def _replace_full(rel, how):
    """Hand the relation's state to a new StoredRelation whose ``full`` is
    assigned from outside, as checkpoint restore and sharding do."""
    from repro.dist.executor import ShardedExecutor
    from repro.gpu.device import VirtualDevice
    from repro.runtime.database import Database

    database = Database({"r": rel.dtypes}, rel.provenance)
    database.relations["r"] = rel
    if how == "restore":
        restored = Database.from_state(database.state_dict(), rel.provenance)
        return restored.relations["r"]
    executor = ShardedExecutor([VirtualDevice(), VirtualDevice()])
    return executor._make_views(None, database)[0].relations["r"]


def _reference_advance(state, changed, delta, provenance):
    """Fold ``delta`` into the ``{row: tag}`` state one fact at a time:
    each row's delta tags ⊕-reduced in input order, then merged with an
    existing tag or inserted unless absorbing zero."""
    groups: dict[tuple, list[int]] = {}
    for index, row in enumerate(delta.rows()):
        groups.setdefault(row, []).append(index)
    frontier = set()
    for row, members in groups.items():
        tag = provenance.oplus_reduce(
            delta.tags[members], np.zeros(len(members), dtype=np.int64), 1
        )
        if row in state:
            merged, improved = provenance.merge_existing(state[row][None], tag)
            state[row] = merged[0].copy()
            if improved[0]:
                frontier.add(row)
        elif not provenance.is_absorbing_zero(tag)[0]:
            state[row] = tag[0].copy()
            frontier.add(row)
    changed |= frontier
    return frontier


def _assert_matches_reference(rel, state, frontier, changed):
    rows = sorted(state)
    full = rel.snapshot("full")
    expected = Table.from_rows(
        rows, rel.dtypes, np.array([state[row] for row in rows], dtype=rel.full.tags.dtype)
    )
    assert full.n_rows == len(rows)
    for got, want in zip(full.columns, expected.columns):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert full.tags.tobytes() == expected.tags.tobytes()
    assert rel.recent_mask.tolist() == [row in frontier for row in rows]
    assert rel.changed_mask.tolist() == [row in changed for row in rows]
    assert rel.stats == RelationStats.from_table(expected)
    if full.packed is not None:
        basis, keys = full.packed
        assert kernels.in_basis(full.columns, basis).all()
        assert np.array_equal(keys, kernels.pack_keys(full.columns, basis))


@pytest.mark.parametrize("provenance_name", MERGE_PROVENANCES)
@settings(max_examples=40, deadline=None)
@given(case=merge_steps())
def test_advance_matches_reference_fold(provenance_name, case):
    kind, steps = case
    rel, provenance = _merge_relation(provenance_name, kind)
    rel.begin_delta_tracking()
    state: dict[tuple, object] = {}
    changed: set[tuple] = set()
    for replace, rows, fact_ids in steps:
        if replace:
            rel = _replace_full(rel, replace)
        delta = Table.from_rows(rows, rel.dtypes, provenance.input_tags(np.array(fact_ids)))
        frontier = _reference_advance(state, changed, delta, provenance)
        assert rel.advance(delta) == len(frontier)
        _assert_matches_reference(rel, state, frontier, changed)


@pytest.mark.parametrize("how", ["restore", "clone"])
def test_replaced_full_advances_past_its_old_range(how):
    """A ``full`` assigned from outside carries no keys from the old
    table's basis: a wider restored table and a delta outside both
    ranges still merge into sorted rows."""
    rel, provenance = make_relation()
    rel.advance(table_from([(0, 1)], provenance))
    rel.advance(table_from([(2, 3)], provenance))
    assert rel.full.packed is not None
    narrow_basis = rel.full.packed.basis
    rel.full = table_from([(-100, 5), (0, 1), (2, 3), (900, 7)], provenance)
    rel = _replace_full(rel, how)
    assert rel.full.packed is None or rel.full.packed.basis != narrow_basis
    n = rel.advance(table_from([(5000, -7), (1, 1), (-100, 5)], provenance))
    assert n == 2
    rows = rel.snapshot("full").rows()
    assert rows == sorted([(-100, 5), (0, 1), (1, 1), (2, 3), (900, 7), (5000, -7)])


def test_fixpoint_never_resorts_full(monkeypatch):
    """Every sort a TC fixpoint runs sees at most one delta's rows: the
    merge binary-searches ``full`` instead of re-sorting it."""
    largest_delta = 0
    real_advance = StoredRelation.advance

    def advance(self, delta):
        nonlocal largest_delta
        largest_delta = max(largest_delta, delta.n_rows)
        return real_advance(self, delta)

    sorted_sizes = []
    real_lex_rank = kernels.lex_rank

    def lex_rank(columns):
        sorted_sizes.append(len(columns[0]) if columns else 0)
        return real_lex_rank(columns)

    monkeypatch.setattr(StoredRelation, "advance", advance)
    monkeypatch.setattr(kernels, "lex_rank", lex_rank)
    n = 40
    edges = [(i, i + 1) for i in range(n - 1)]
    engine = LobsterEngine(TC_PROGRAM, provenance="unit")
    database = engine.create_database()
    database.add_facts("edge", edges)
    engine.run(database)
    assert database.relation("path").n_facts() == n * (n - 1) // 2
    assert sorted_sizes and max(sorted_sizes) <= largest_delta
    assert largest_delta < database.relation("path").n_facts()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["int", "float", "wide"]),
    data=st.data(),
)
def test_row_locator_matches_set_membership(kind, data):
    """``contains`` and ``member_mask`` agree with set membership on
    packed tables and on tables whose rows cannot pack."""
    value = _value(kind, 6)
    rows = sorted(data.draw(st.sets(st.tuples(st.integers(-3, 3), value), max_size=15)))
    query = data.draw(st.lists(st.tuples(st.integers(-4, 4), value), max_size=15))
    second = np.float64 if kind == "float" else np.int64
    dtypes = (np.dtype(np.int64), np.dtype(second))
    provenance = create("unit")
    table = Table.from_rows(rows, dtypes, provenance.one_tags(len(rows)))
    columns = [np.array([row[j] for row in query], dtype=dtypes[j]) for j in range(2)]
    locator = RowLocator(table)
    if kind == "int":
        assert (locator._packed is None) == (not rows)
    elif kind == "float":
        assert locator._packed is None
    assert locator.contains(columns).tolist() == [row in set(rows) for row in query]
    assert locator.member_mask(columns).tolist() == [row in set(query) for row in rows]
