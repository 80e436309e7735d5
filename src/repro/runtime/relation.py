"""Stored relations with semi-naive partitions (§3.4).

Each relation keeps one lexicographically *sorted* ``full`` table (every
fact with its current best tag) plus a boolean ``recent`` mask marking the
semi-naive frontier.  :meth:`StoredRelation.advance` folds an iteration's
delta facts in:

* the delta is sorted and deduplicated, combining duplicate tags with ⊕
  (the APM ``sort``/``unique⟨⊕⟩`` sequence of Appendix A's "Stratum" rule);
* the deduplicated delta is merged against ``full`` (the ``merge``
  instruction); a fact re-enters the frontier if it is brand new or its
  tag strictly improved (tag saturation).

The merge is linear in ``full``, and only the delta is sorted.  ``full``
carries its rows packed into uint64 keys (:class:`~.table.PackedKeys`)
together with the per-column ``(lo, bits)`` basis that packed them.  The
keys belong to the table, not the relation, so a ``full`` assigned from
outside (a restored checkpoint, a shard clone) is packed afresh on its
first advance instead of being read under a stale basis.  The delta is
packed under the same basis, which is widened, and ``full`` re-packed,
only when a delta value falls outside it.  One binary search per delta
row (:func:`~repro.gpu.kernels.merge_sorted`) finds its slot in ``full``;
rediscovered facts ⊕-merge into their old tags and brand-new rows are
spliced into fresh arrays, with the destinations computed once for every
column.  The old table is never written, so shard clones may share it.
Rows that cannot pack (float columns, a span over 63 bits) are located by
ranking ``full`` and the delta together, and take the same splice.

Alongside the per-iteration ``recent`` frontier, each relation keeps a
``changed`` mask accumulating every row added or improved since
:meth:`StoredRelation.begin_delta_tracking`.  Incremental re-evaluation
zeroes the mask before folding new EDB facts in, then seeds its delta
variants from the ``delta`` partition (the changed rows) — including
changes produced by *earlier strata* of the same pass, which the
per-iteration ``recent`` mask has already forgotten by the time a later
stratum runs.
"""

from __future__ import annotations

import numpy as np

from .table import PackedKeys, Table
from ..gpu import kernels
from ..provenance.base import Provenance
from ..stats.relation_stats import RelationStats


def dedup_table(delta: Table, provenance: Provenance) -> Table:
    """Sort + unique⟨⊕⟩ a delta table (the APM ``sort``/``unique⟨⊕⟩``
    sequence), standalone so callers outside a :class:`StoredRelation` —
    notably the sharded executor's owner-side merge — can share it."""
    if delta.arity == 0:
        if delta.n_rows == 0:
            return delta
        seg = np.zeros(delta.n_rows, dtype=np.int64)
        tags = provenance.oplus_reduce(delta.tags, seg, 1)
        return Table([], tags, 1)
    order = kernels.lex_rank(delta.columns)
    sorted_cols = [c[order] for c in delta.columns]
    sorted_tags = delta.tags[order]
    unique_cols, segment_ids, _ = kernels.unique_rows(sorted_cols)
    nseg = len(unique_cols[0]) if unique_cols else 0
    tags = provenance.oplus_reduce(sorted_tags, segment_ids, nseg)
    return Table(unique_cols, tags, nseg)


def packed_keys(table: Table) -> PackedKeys | None:
    """The packed keys of a sorted, duplicate-free ``table``, packed and
    cached on the table at first use; None when its rows do not pack."""
    if table.packed is None and table.arity and table.n_rows:
        basis = kernels.key_basis(table.columns)
        if basis is not None:
            table.packed = PackedKeys(basis, kernels.pack_keys(table.columns, basis))
    return table.packed


class RowLocator:
    """Membership lookups against one (lexicographically sorted) table.

    The over-delete phase of DRed-style maintenance repeatedly asks
    "which of these candidate rows exist in ``full``?" while ``full`` is
    guaranteed static.  Each lookup is a binary search of the query rows'
    keys, packed under the table's basis, over the table's cached packed
    keys (:func:`packed_keys`) instead of a fresh O((n+q) log) sort; tables
    whose rows cannot pack (floats, >63 bits) rank the query rows with
    the table's rows per call (:func:`~repro.gpu.kernels.merge_sorted`).
    """

    def __init__(self, table: Table):
        self._table = table
        self._packed = packed_keys(table)

    def _find(self, columns) -> tuple[np.ndarray, np.ndarray]:
        """Locate the query rows in the table: returns ``(query rows
        found, their positions in the table)``."""
        table = self._table
        columns = [
            np.asarray(q).astype(c.dtype, copy=False)
            for q, c in zip(columns, table.columns)
        ]
        if self._packed is not None:
            basis, keys = self._packed
            inside = np.flatnonzero(kernels.in_basis(columns, basis))
            query = [c[inside] for c in columns]
            positions, match = kernels.merge_sorted(
                table.columns, query, keys, kernels.pack_keys(query, basis)
            )
            return inside[match], positions[match]
        # Rows that do not pack: rank the distinct query rows with the
        # table's, then map each query row to its distinct row.
        order = kernels.lex_rank(columns)
        distinct, group, _ = kernels.unique_rows([c[order] for c in columns])
        positions, match = kernels.merge_sorted(table.columns, distinct)
        found = match[group]
        return order[found], positions[group[found]]

    def contains(self, columns, n_query: int | None = None) -> np.ndarray:
        """Boolean mask over the *query* rows present in the table (the
        opposite direction of :meth:`member_mask`).  ``n_query`` must be
        passed for arity-0 queries (no columns to measure)."""
        table = self._table
        if n_query is None:
            n_query = len(columns[0]) if columns else 0
        if table.arity == 0:
            # Every arity-0 query row is the empty tuple, present iff the
            # table is nonempty.
            return np.full(n_query, table.n_rows > 0, dtype=bool)
        if table.n_rows == 0 or n_query == 0:
            return np.zeros(n_query, dtype=bool)
        hit = np.zeros(n_query, dtype=bool)
        hit[self._find(columns)[0]] = True
        return hit

    def member_mask(self, columns) -> np.ndarray:
        """Boolean mask over the *table's* rows hit by any query row."""
        table = self._table
        mask = np.zeros(table.n_rows, dtype=bool)
        n_query = len(columns[0]) if columns else 0
        if table.n_rows == 0:
            return mask
        if table.arity == 0:
            # All arity-0 rows are equal; any query row hits them all.
            mask[:] = True
            return mask
        if n_query == 0:
            return mask
        mask[self._find(columns)[1]] = True
        return mask


class StoredRelation:
    """One relation's persistent storage across fix-point iterations."""

    def __init__(self, name: str, dtypes: tuple[np.dtype, ...], provenance: Provenance):
        self.name = name
        self.dtypes = dtypes
        self.provenance = provenance
        self.full = Table.empty(dtypes, provenance)
        self.recent_mask = np.zeros(0, dtype=bool)
        self.changed_mask = np.zeros(0, dtype=bool)
        #: Opt-in planner statistics (:meth:`enable_stats`); None keeps
        #: the advance/retract hot paths entirely stats-free.
        self._stats: RelationStats | None = None

    # ------------------------------------------------------------------

    def enable_stats(self) -> RelationStats:
        """Turn on incremental statistics for this relation.

        The first call summarizes the current ``full`` table; from then
        on :meth:`advance` folds newly added rows in (exactly equal to a
        recompute — the sketches are insert-mergeable) and the retraction
        paths rebuild from the surviving table (min/max and distinct
        counts cannot shrink incrementally).  Returns the live object, so
        a :class:`~repro.stats.StatsCatalog` can hold it by reference and
        observe later mutations without re-snapshotting.
        """
        if self._stats is None:
            self._stats = RelationStats.from_table(self.full)
        return self._stats

    @property
    def stats(self) -> RelationStats | None:
        return self._stats

    @property
    def arity(self) -> int:
        return len(self.dtypes)

    def n_facts(self) -> int:
        return self.full.n_rows

    def n_recent(self) -> int:
        return int(self.recent_mask.sum())

    def nbytes(self) -> int:
        return self.full.nbytes() + self.recent_mask.nbytes

    def snapshot(self, part: str) -> Table:
        """Return the requested partition: ``full``, ``recent``,
        ``stable``, or ``delta`` (rows changed since tracking began)."""
        if part == "full":
            return self.full
        if part == "recent":
            return self.full.take(np.flatnonzero(self.recent_mask))
        if part == "stable":
            return self.full.take(np.flatnonzero(~self.recent_mask))
        if part == "delta":
            return self.full.take(np.flatnonzero(self.changed_mask))
        raise ValueError(f"unknown partition {part!r}")

    def mark_all_recent(self) -> None:
        self.recent_mask = np.ones(self.full.n_rows, dtype=bool)

    def clear_recent(self) -> None:
        self.recent_mask = np.zeros(self.full.n_rows, dtype=bool)

    def begin_delta_tracking(self) -> None:
        """Zero the ``changed`` mask; subsequent :meth:`advance` calls
        accumulate added/improved rows into it."""
        self.changed_mask = np.zeros(self.full.n_rows, dtype=bool)

    def n_changed(self) -> int:
        return int(self.changed_mask.sum())

    def seed_recent_from_changes(self) -> None:
        """Make the semi-naive frontier exactly the changed rows (the
        incremental-pass replacement for :meth:`mark_all_recent`)."""
        self.recent_mask = self.changed_mask.copy()

    def locator(self) -> RowLocator:
        """A fresh membership index over the current ``full`` table.
        Valid only while ``full`` is not mutated (the over-delete phase
        guarantees this: nothing is removed until dooming finishes)."""
        return RowLocator(self.full)

    def remove_rows(self, mask: np.ndarray) -> Table:
        """Physically remove the masked rows from ``full`` (the DRed
        over-delete step); returns the removed rows with their old tags
        so callers can surface them as retraction deltas.  ``full`` stays
        sorted (removal preserves order); the recent/changed masks are
        reset — the re-derive phase reseeds them."""
        full = self.full
        doomed, keep = np.flatnonzero(mask), np.flatnonzero(~mask)
        removed, self.full = full.take(doomed), full.take(keep)
        if full.packed is not None:
            # Both parts stay sorted, so their keys are subsequences.
            basis, keys = full.packed
            removed.packed = PackedKeys(basis, keys[doomed])
            self.full.packed = PackedKeys(basis, keys[keep])
        self.recent_mask = np.zeros(self.full.n_rows, dtype=bool)
        self.changed_mask = np.zeros(self.full.n_rows, dtype=bool)
        if self._stats is not None:
            # Deletions rebuild: min/max and KMV minima cannot shrink
            # incrementally, and this path is already O(n).
            self._stats = RelationStats.from_table(self.full)
        return removed

    # ------------------------------------------------------------------

    def set_facts(self, table: Table) -> None:
        """Replace contents with ``table`` (EDB loading); dedups with ⊕."""
        self.full = Table.empty(self.dtypes, self.provenance)
        self.recent_mask = np.zeros(0, dtype=bool)
        self.changed_mask = np.zeros(0, dtype=bool)
        if self._stats is not None:
            self._stats = RelationStats(self.arity)  # advance() refills
        if table.n_rows:
            self.advance(table)
        self.mark_all_recent()

    def advance(self, delta: Table) -> int:
        """Fold delta facts in; returns the new frontier size.

        Previously recent facts become stable; delta facts that are new or
        whose tags improved become the frontier.
        """
        prov = self.provenance
        full = self.full
        if len(self.changed_mask) != full.n_rows:
            self.changed_mask = np.zeros(full.n_rows, dtype=bool)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        delta = self._dedup(delta)
        if delta.n_rows == 0:
            self.clear_recent()
            return 0

        if full.n_rows == 0:
            keep = ~prov.is_absorbing_zero(delta.tags)
            self.full = delta.take(np.flatnonzero(keep))
            self.recent_mask = np.ones(self.full.n_rows, dtype=bool)
            self.changed_mask = np.ones(self.full.n_rows, dtype=bool)
            if self._stats is not None:
                self._stats.observe_added(self.full.columns, self.full.n_rows)
            return self.full.n_rows

        # Locate every delta row in ``full``: its slot, and whether the
        # fact is already there.
        packed = self._packed_covering(delta)
        delta_keys = None
        if self.arity == 0:
            # Every arity-0 row is the empty tuple, already in ``full``.
            positions = np.zeros(1, dtype=np.int64)
            match = np.ones(1, dtype=bool)
        elif packed is None:
            positions, match = kernels.merge_sorted(full.columns, delta.columns)
        else:
            delta_keys = kernels.pack_keys(delta.columns, packed.basis)
            positions, match = kernels.merge_sorted(
                full.columns, delta.columns, packed.keys, delta_keys
            )

        # Rediscovered facts ⊕-merge into their old tags.
        hits = np.flatnonzero(match)
        old_hits = positions[hits]
        if len(hits):
            merged, improved = prov.merge_existing(
                full.tags[old_hits], delta.tags[hits]
            )
        # Brand-new facts are inserted unless their tag is the absorbing
        # zero.
        fresh = np.flatnonzero(~match)
        fresh = fresh[~prov.is_absorbing_zero(delta.tags[fresh])]

        # Splice: a new row lands at its slot shifted by the new rows
        # inserted before it; old rows fill the remaining positions in
        # order.  Every column reuses these destinations.
        n = full.n_rows + len(fresh)
        slots = positions[fresh]
        new_dest = slots + np.arange(len(fresh))
        is_old = np.ones(n, dtype=bool)
        is_old[new_dest] = False
        hit_dest = old_hits + np.searchsorted(slots, old_hits, side="right")

        def splice(old: np.ndarray, new) -> np.ndarray:
            out = np.empty(n, dtype=old.dtype)
            out[is_old] = old
            out[new_dest] = new
            return out

        tags = splice(full.tags, delta.tags[fresh])
        recent = np.zeros(n, dtype=bool)
        recent[new_dest] = True
        if len(hits):
            tags[hit_dest] = merged
            recent[hit_dest[improved]] = True
        # Carry each old row's ``changed`` flag through the splice, then
        # fold this advance's additions and improvements in.
        self.changed_mask = splice(self.changed_mask, True) | recent
        self.recent_mask = recent
        self.full = Table(
            [splice(f, d[fresh]) for f, d in zip(full.columns, delta.columns)],
            tags,
            n,
        )
        if delta_keys is not None:
            self.full.packed = PackedKeys(
                packed.basis, splice(packed.keys, delta_keys[fresh])
            )
        if self._stats is not None and len(fresh):
            # Only brand-new facts change the summarized row set (tag
            # improvements touch tags, not values), so folding exactly
            # those keeps the stats equal to a recompute.
            self._stats.observe_added([d[fresh] for d in delta.columns], len(fresh))
        return int(recent.sum())

    def _packed_covering(self, delta: Table) -> PackedKeys | None:
        """The non-empty ``full``'s packed keys under a basis that also
        covers ``delta``; None when the rows do not pack.  ``full`` is
        packed once, and re-packed only when ``delta`` falls outside its
        basis."""
        packed = packed_keys(self.full)
        if packed is None:
            return None
        basis = kernels.key_basis(delta.columns, packed.basis)
        if basis is None:
            return None
        if basis != packed.basis:
            packed = PackedKeys(basis, kernels.pack_keys(self.full.columns, basis))
        return packed

    # ------------------------------------------------------------------

    def _dedup(self, delta: Table) -> Table:
        """Sort + unique⟨⊕⟩ a delta table."""
        return dedup_table(delta, self.provenance)
