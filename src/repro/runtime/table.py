"""Columnar tables (§2.4).

A relation instance is a flat, column-oriented table: ``arity`` equally
sized value columns plus one tag column for provenance.  Row count is
tracked explicitly so arity-0 relations (e.g. ``endpoints_connected()``)
behave correctly — they hold at most one logical row after deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..provenance.base import Provenance


class PackedKeys(NamedTuple):
    """The uint64 keys of a sorted, duplicate-free table's rows and the
    per-column ``(lo, bits)`` basis that packed them
    (:func:`~repro.gpu.kernels.pack_keys`)."""

    basis: tuple[tuple[int, int], ...]
    keys: np.ndarray


@dataclass
class Table:
    """A columnar table: value columns + provenance tags."""

    columns: list[np.ndarray]
    tags: np.ndarray
    n_rows: int
    #: Packed keys of these rows, cached by the relation storage on the
    #: sorted tables it keeps.  They belong to this table, whose columns
    #: are never written once built; any other table starts without them.
    packed: PackedKeys | None = field(default=None, repr=False, compare=False)

    @classmethod
    def empty(cls, dtypes: tuple[np.dtype, ...], provenance: Provenance) -> "Table":
        columns = [np.empty(0, dtype=dt) for dt in dtypes]
        return cls(columns, np.empty(0, dtype=provenance.tag_dtype()), 0)

    @classmethod
    def from_rows(
        cls,
        rows: list[tuple],
        dtypes: tuple[np.dtype, ...],
        tags: np.ndarray,
    ) -> "Table":
        """Build a columnar table from Python row tuples.

        One ``np.fromiter`` pass per column — the generator walks the row
        list per column, but element conversion happens in C, which beats
        the per-cell ``column[i] = row[j]`` double loop by a wide margin
        (pinned by a micro-benchmark in ``tests/test_table_database.py``).
        """
        n = len(rows)
        columns = [
            np.fromiter((row[j] for row in rows), dtype=dt, count=n)
            for j, dt in enumerate(dtypes)
        ]
        return cls(columns, tags, n)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def is_empty(self) -> bool:
        return self.n_rows == 0

    def take(self, indices: np.ndarray) -> "Table":
        return Table([c[indices] for c in self.columns], self.tags[indices], len(indices))

    def rows(self) -> list[tuple]:
        """Materialize rows as Python tuples (for tests and output)."""
        return [tuple(col[i].item() for col in self.columns) for i in range(self.n_rows)]

    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns) + self.tags.nbytes

    @staticmethod
    def concat(tables: list["Table"], dtypes, provenance: Provenance) -> "Table":
        tables = [t for t in tables if t.n_rows > 0]
        if not tables:
            return Table.empty(dtypes, provenance)
        if len(tables) == 1:
            return tables[0]
        columns = [
            np.concatenate([t.columns[j] for t in tables])
            for j in range(len(dtypes))
        ]
        tags = np.concatenate([t.tags for t in tables])
        return Table(columns, tags, sum(t.n_rows for t in tables))
