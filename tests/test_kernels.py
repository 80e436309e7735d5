"""Unit + property tests for the data-parallel kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import kernels

ints = st.integers(min_value=-50, max_value=50)


class TestExclusiveScan:
    def test_empty(self):
        assert len(kernels.exclusive_scan(np.zeros(0, dtype=np.int64))) == 0

    def test_basic(self):
        out = kernels.exclusive_scan(np.array([3, 1, 4, 1]))
        assert out.tolist() == [0, 3, 4, 8]

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=50))
    def test_matches_cumsum(self, values):
        arr = np.array(values, dtype=np.int64)
        out = kernels.exclusive_scan(arr)
        expected = np.concatenate([[0], np.cumsum(arr)[:-1]]) if len(arr) else arr
        assert np.array_equal(out, expected)


class TestSortAndUnique:
    def test_sort_rows_lexicographic(self):
        cols = [np.array([2, 1, 1]), np.array([0, 5, 3])]
        sorted_cols, order = kernels.sort_rows(cols)
        assert list(zip(*[c.tolist() for c in sorted_cols])) == [(1, 3), (1, 5), (2, 0)]
        assert order.tolist() == [2, 1, 0]

    @given(st.lists(st.tuples(ints, ints), min_size=0, max_size=60))
    def test_unique_rows_matches_set(self, rows):
        cols = (
            [np.array([r[0] for r in rows]), np.array([r[1] for r in rows])]
            if rows
            else [np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)]
        )
        sorted_cols, _ = kernels.sort_rows(cols)
        unique_cols, segment_ids, firsts = kernels.unique_rows(sorted_cols)
        got = set(zip(*[c.tolist() for c in unique_cols])) if rows else set()
        assert got == set(rows)
        # Segment ids are dense, ascending, and map rows to their group.
        if rows:
            assert segment_ids[0] == 0
            assert segment_ids[-1] == len(got) - 1
            assert (np.diff(segment_ids) >= 0).all()


def _merge_reference(left_rows, right_rows):
    """Slot and presence of each right row in the sorted left rows."""
    positions = [sum(1 for row in left_rows if row < r) for r in right_rows]
    match = [r in left_rows for r in right_rows]
    return positions, match


def _packed_merge(left, right):
    basis = kernels.key_basis(right, kernels.key_basis(left))
    return kernels.merge_sorted(
        left, right, kernels.pack_keys(left, basis), kernels.pack_keys(right, basis)
    )


class TestMergeSorted:
    def test_positions_and_match(self):
        left = [np.array([1, 1, 3]), np.array([0, 4, 2])]
        right = [np.array([0, 1, 1, 3, 5]), np.array([9, 4, 5, 2, 0])]
        for positions, match in (
            kernels.merge_sorted(left, right),
            _packed_merge(left, right),
        ):
            assert positions.tolist() == [0, 1, 2, 2, 3]
            assert match.tolist() == [False, True, False, True, False]

    def test_float_columns_take_ranked_path(self):
        left = [np.array([0.5, 1.5, 2.5])]
        right = [np.array([0.25, 1.5, 3.0])]
        assert kernels.key_basis(left) is None
        positions, match = kernels.merge_sorted(left, right)
        assert positions.tolist() == [0, 1, 3]
        assert match.tolist() == [False, True, False]

    def test_wide_span_takes_ranked_path(self):
        left = [np.array([-(2**62), 0, 2**62])]
        right = [np.array([-(2**62), 1, 2**62 + 1])]
        assert kernels.key_basis(left + right) is None
        positions, match = kernels.merge_sorted(left, right)
        assert positions.tolist() == [0, 2, 3]
        assert match.tolist() == [True, False, False]

    @given(
        st.sets(st.tuples(ints, ints), max_size=40),
        st.sets(st.tuples(ints, ints), min_size=1, max_size=40),
    )
    def test_both_paths_match_reference(self, left_rows, right_rows):
        left_rows, right_rows = sorted(left_rows), sorted(right_rows)
        left = [np.array([r[j] for r in left_rows], dtype=np.int64) for j in range(2)]
        right = [np.array([r[j] for r in right_rows], dtype=np.int64) for j in range(2)]
        want = _merge_reference(left_rows, right_rows)
        for positions, match in (
            kernels.merge_sorted(left, right),
            _packed_merge(left, right),
        ):
            assert (positions.tolist(), match.tolist()) == want


class TestKeyBasis:
    def test_packing_keeps_row_order(self):
        cols = [np.array([-3, -3, 7]), np.array([2, 9, -1])]
        basis = kernels.key_basis(cols)
        keys = kernels.pack_keys(cols, basis)
        assert (keys[1:] > keys[:-1]).all()

    def test_extend_covers_old_range(self):
        basis = kernels.key_basis([np.array([0, 5])])
        assert basis == ((0, 3),)
        assert kernels.key_basis([np.array([2])], basis) == basis
        assert kernels.key_basis([np.array([-1])], basis) == ((-1, 4),)
        assert kernels.key_basis([np.array([9])], basis) == ((0, 4),)

    def test_in_basis(self):
        basis = ((0, 2), (-4, 3))
        cols = [np.array([0, 3, 4, 1]), np.array([-4, 3, 0, -5])]
        assert kernels.in_basis(cols, basis).tolist() == [True, True, False, False]


class TestSegmentReductions:
    def test_segment_reduce_max(self):
        values = np.array([1.0, 5.0, 2.0, 7.0])
        seg = np.array([0, 0, 1, 1])
        assert kernels.segment_reduce_max(values, seg, 2).tolist() == [5.0, 7.0]

    def test_segment_reduce_sum(self):
        values = np.array([1.0, 5.0, 2.0, 7.0])
        seg = np.array([0, 0, 1, 1])
        assert kernels.segment_reduce_sum(values, seg, 2).tolist() == [6.0, 9.0]

    def test_segment_argmax_ties_take_earliest(self):
        values = np.array([3.0, 3.0, 1.0, 2.0])
        seg = np.array([0, 0, 1, 1])
        assert kernels.segment_argmax(values, seg, 2).tolist() == [0, 3]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=40,
        )
    )
    def test_segment_argmax_property(self, pairs):
        pairs.sort(key=lambda p: p[0])
        seg_raw = np.array([p[0] for p in pairs])
        # densify segment ids
        _, seg = np.unique(seg_raw, return_inverse=True)
        values = np.array([p[1] for p in pairs])
        nseg = seg.max() + 1
        winners = kernels.segment_argmax(values, seg, nseg)
        for s in range(nseg):
            members = np.flatnonzero(seg == s)
            assert values[winners[s]] == values[members].max()


class TestRepeatRanges:
    def test_expand(self):
        counts = np.array([2, 0, 3])
        offsets = kernels.exclusive_scan(counts)
        row_ids, ranks = kernels.repeat_ranges(counts, offsets)
        assert row_ids.tolist() == [0, 0, 2, 2, 2]
        assert ranks.tolist() == [0, 1, 0, 1, 2]

    def test_empty(self):
        row_ids, ranks = kernels.repeat_ranges(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert len(row_ids) == 0 and len(ranks) == 0


class TestHashColumns:
    def test_deterministic(self):
        cols = [np.array([1, 2, 3]), np.array([4, 5, 6])]
        a = kernels.hash_columns(cols, 2)
        b = kernels.hash_columns(cols, 2)
        assert np.array_equal(a, b)

    def test_width_zero(self):
        cols = [np.array([1, 2, 3])]
        assert kernels.hash_columns(cols, 0).tolist() == [0, 0, 0]

    def test_distinguishes_columns(self):
        a = kernels.hash_columns([np.array([1]), np.array([2])], 2)
        b = kernels.hash_columns([np.array([2]), np.array([1])], 2)
        assert a[0] != b[0]

    def test_float_columns_hashable(self):
        out = kernels.hash_columns([np.array([1.5, 2.5])], 1)
        assert len(out) == 2 and out[0] != out[1]


class TestCompact:
    def test_compact(self):
        mask = np.array([True, False, True])
        cols = kernels.compact(mask, [np.array([10, 20, 30])])
        assert cols[0].tolist() == [10, 30]
