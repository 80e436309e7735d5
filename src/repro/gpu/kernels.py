"""Vectorized data-parallel primitives backing the APM instruction set.

Each function here corresponds to a GPU kernel in the paper's runtime
(Table 1).  All of them operate on whole columns with no per-row Python
control flow, which is the invariant APM is designed to guarantee: any
program composed of these primitives admits massively parallel execution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (the APM ``scan`` instruction)."""
    out = np.empty_like(values)
    if len(values) == 0:
        return out
    out[0] = 0
    np.cumsum(values[:-1], out=out[1:])
    return out


#: Per-column ``(lo, bits)`` packing basis: column ``j`` holds
#: ``value - lo`` in ``bits`` bits, so it covers ``lo .. lo + 2**bits - 1``.
Basis = tuple[tuple[int, int], ...]


def key_basis(
    columns: Sequence[np.ndarray], extend: Basis | None = None
) -> Basis | None:
    """The narrowest basis covering every value of ``columns`` and, when
    given, the whole range of ``extend``.

    Returns None when the rows cannot pack: a floating-point column, or a
    combined width over 63 bits.  Packing under any covering basis keeps
    lexicographic row order, so keys packed under one basis compare like
    the rows they encode.
    """
    if not columns:
        return None
    basis: list[tuple[int, int]] = []
    total_bits = 0
    for j, col in enumerate(columns):
        col = np.asarray(col)
        if col.dtype.kind == "f":
            return None
        lo = int(col.min()) if len(col) else 0
        hi = int(col.max()) if len(col) else 0
        if extend is not None:
            ext_lo, ext_bits = extend[j]
            lo, hi = min(lo, ext_lo), max(hi, ext_lo + (1 << ext_bits) - 1)
        bits = max(hi - lo, 1).bit_length()
        total_bits += bits
        if total_bits > 63:
            return None
        basis.append((lo, bits))
    return tuple(basis)


def pack_keys(columns: Sequence[np.ndarray], basis: Basis) -> np.ndarray:
    """Pack rows into uint64 keys under ``basis``; every value must lie
    inside it (see :func:`in_basis`)."""
    packed = (np.asarray(columns[0]) - basis[0][0]).astype(np.uint64)
    for col, (lo, bits) in zip(columns[1:], basis[1:]):
        packed <<= np.uint64(bits)
        packed |= (np.asarray(col) - lo).astype(np.uint64)
    return packed


def in_basis(columns: Sequence[np.ndarray], basis: Basis) -> np.ndarray:
    """Mask of the rows whose every value lies inside ``basis``; the
    other rows can never equal a row packed under it."""
    inside = np.ones(len(columns[0]), dtype=bool)
    for col, (lo, bits) in zip(columns, basis):
        col = np.asarray(col)
        inside &= (col >= lo) & (col <= lo + (1 << bits) - 1)
    return inside


def lex_rank(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Permutation that sorts rows of a columnar table lexicographically.

    GPU sorts run fastest on packed radix keys; the same trick dominates
    here because a single-key argsort of the rows packed into uint64 keys
    is several times cheaper than a general lexsort.  Rows that cannot
    pack fall back to ``np.lexsort`` (whose last key is primary, hence the
    reversal).
    """
    if not columns:
        return np.zeros(0, dtype=np.int64)
    n = len(columns[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    basis = key_basis(columns)
    if basis is not None:
        return np.argsort(pack_keys(columns, basis), kind="stable")
    return np.lexsort(tuple(reversed([np.asarray(c) for c in columns])))


def sort_rows(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Sort a columnar table; returns (sorted columns, permutation applied)."""
    order = lex_rank(columns)
    return [np.asarray(c)[order] for c in columns], order

def row_group_boundaries(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean mask marking the first row of each run of equal sorted rows."""
    if not columns or len(columns[0]) == 0:
        return np.zeros(0, dtype=bool)
    n = len(columns[0])
    is_first = np.zeros(n, dtype=bool)
    is_first[0] = True
    for col in columns:
        col = np.asarray(col)
        is_first[1:] |= col[1:] != col[:-1]
    return is_first


def unique_rows(
    columns: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Deduplicate a *sorted* columnar table (the ``unique`` instruction).

    Returns ``(unique columns, segment_ids, first_index_of_each_group)``
    where ``segment_ids[i]`` is the output row that input row ``i``
    collapsed into.  Tag reduction (``unique⟨⊕⟩``) is done by the caller via
    a segment reduction using ``segment_ids``.
    """
    is_first = row_group_boundaries(columns)
    segment_ids = np.cumsum(is_first) - 1
    firsts = np.flatnonzero(is_first)
    return [np.asarray(c)[firsts] for c in columns], segment_ids, firsts


def merge_sorted(
    left: Sequence[np.ndarray],
    right: Sequence[np.ndarray],
    left_keys: np.ndarray | None = None,
    right_keys: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Locate each row of ``right`` in ``left`` (the ``merge`` instruction).

    ``left`` must be lexicographically sorted and free of duplicates.
    Returns ``(positions, match)`` over the right rows: ``positions[i]``
    counts the left rows that sort strictly before right row ``i`` — its
    slot, or where it is inserted — and ``match[i]`` says whether the left
    row at that slot equals it.  Given both sides' keys packed under one
    basis, this is one binary search per right row, in any order.
    Otherwise the two tables are concatenated and ranked together, which
    needs ``right`` sorted and free of duplicates too.
    """
    if left_keys is not None and right_keys is not None:
        positions = np.searchsorted(left_keys, right_keys)
        match = positions < len(left_keys)
        match[match] = left_keys[positions[match]] == right_keys[match]
        return positions, match
    n_left = len(left[0])
    concat = [np.concatenate([np.asarray(l), np.asarray(r)]) for l, r in zip(left, right)]
    origin = np.repeat(np.array([0, 1], dtype=np.int64), [n_left, len(right[0])])
    # The origin column breaks ties, so a left row leads its equal right row.
    order = lex_rank(concat + [origin])
    from_right = order >= n_left
    lefts_before = np.cumsum(~from_right)[from_right]
    match = ~row_group_boundaries([c[order] for c in concat])[from_right]
    return lefts_before - match, match


def gather(indices: np.ndarray, columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Row gather (the ``gather`` instruction)."""
    return [np.asarray(c)[indices] for c in columns]


def segment_reduce_max(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Per-segment max of ``values``; segments must be sorted ascending."""
    out = np.full(nseg, -np.inf, dtype=np.float64)
    np.maximum.at(out, segment_ids, values.astype(np.float64))
    return out


def segment_reduce_sum(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    out = np.zeros(nseg, dtype=np.float64)
    np.add.at(out, segment_ids, values.astype(np.float64))
    return out


def segment_argmax(values: np.ndarray, segment_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Index (into ``values``) of the max element of each segment.

    Ties resolve to the earliest row, keeping results deterministic.
    """
    if nseg == 0:
        return np.zeros(0, dtype=np.int64)
    maxima = segment_reduce_max(values, segment_ids, nseg)
    is_max = values.astype(np.float64) == maxima[segment_ids]
    candidates = np.flatnonzero(is_max)
    out = np.full(nseg, np.iinfo(np.int64).max, dtype=np.int64)
    # minimum.at keeps the earliest candidate per segment, deterministically.
    np.minimum.at(out, segment_ids[candidates], candidates)
    out = np.where(out == np.iinfo(np.int64).max, -1, out)
    return out


def repeat_ranges(counts: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row match counts into flat (row_id, slot_within_row) pairs.

    This is the standard "expand" step of a GPU hash join: after ``count``
    and ``scan``, each probe row ``i`` owns output slots
    ``offsets[i] .. offsets[i]+counts[i]``.  Returns ``(row_ids, ranks)``
    where ``ranks`` numbers each row's outputs from zero.
    """
    total = int(offsets[-1] + counts[-1]) if len(counts) else 0
    row_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    positions = np.arange(total, dtype=np.int64)
    ranks = positions - offsets[row_ids]
    return row_ids, ranks


def compact(mask: np.ndarray, columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Stream-compact rows where ``mask`` is true (select's second half)."""
    idx = np.flatnonzero(mask)
    return [np.asarray(c)[idx] for c in columns]


def hash_columns(columns: Sequence[np.ndarray], width: int) -> np.ndarray:
    """64-bit mixing hash of the first ``width`` columns of a table.

    Uses a splitmix64-style mix per column, combined multiplicatively —
    cheap, stateless, and vectorized, like the device hash in the paper's
    runtime.
    """
    if width == 0:
        n = len(columns[0]) if columns else 0
        return np.zeros(n, dtype=np.uint64)
    acc = np.zeros(len(columns[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(width):
            col = np.asarray(columns[k])
            if col.dtype.kind == "f":
                col = col.view(np.uint64) if col.dtype.itemsize == 8 else col.astype(np.uint64)
            else:
                col = col.astype(np.uint64)
            z = col + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            acc = acc * np.uint64(0x100000001B3) + z
    return acc
