"""Tests for the demand-refresh sweep."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshScheduler
from repro.params import DramGeometry


class TestRefreshScheduler:
    def test_default_covers_bank_in_one_window(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        assert s.refs_per_window == 256  # 4096 rows / 16 per REF
        assert s.rows_per_ref == 16

    def test_slices_partition_the_bank(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        seen = set()
        for _ in range(s.refs_per_window):
            slice_ = s.advance()
            rows = set(range(slice_.physical_start, slice_.physical_end))
            assert not rows & seen
            seen |= rows
        assert seen == set(range(small_geometry.rows_per_bank))

    def test_refptr_wraps_and_counts_windows(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        for _ in range(s.refs_per_window):
            s.advance()
        assert s.refptr == 0
        assert s.windows_completed == 1

    def test_wrap_flag_on_last_slice(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        slices = [s.advance() for _ in range(s.refs_per_window)]
        assert not any(sl.wraps_window for sl in slices[:-1])
        assert slices[-1].wraps_window

    def test_subarray_start_and_finish_flags(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        refs_per_sa = small_geometry.rows_per_subarray // s.rows_per_ref
        slices = [s.advance() for _ in range(refs_per_sa)]
        assert slices[0].starts_subarray
        assert not slices[0].finishes_subarray
        assert slices[-1].finishes_subarray
        assert all(sl.subarray == 0 for sl in slices)

    def test_subarrays_are_swept_in_order(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        refs_per_sa = small_geometry.rows_per_subarray // s.rows_per_ref
        for k in range(2 * refs_per_sa + 1):
            slice_ = s.advance()
            assert slice_.physical_start // \
                small_geometry.rows_per_subarray == k // refs_per_sa
            assert slice_.starts_subarray == (k % refs_per_sa == 0)

    def test_logical_rows_match_mapping_sequential(self, small_geometry):
        s = RefreshScheduler(small_geometry, SequentialR2SA(small_geometry))
        slice_ = s.advance()
        assert slice_.logical_rows == list(range(16))

    def test_logical_rows_match_mapping_strided(self, small_geometry):
        mapping = StridedR2SA(small_geometry)
        s = RefreshScheduler(small_geometry, mapping)
        slice_ = s.advance()
        for p, logical in zip(
                range(slice_.physical_start, slice_.physical_end),
                slice_.logical_rows):
            assert mapping.physical_index(logical) == p

    def test_scaled_window_covers_bank_with_fewer_refs(self,
                                                       small_geometry):
        s = RefreshScheduler(small_geometry, refs_per_window=64)
        assert s.rows_per_ref == 64
        seen = set()
        for _ in range(64):
            slice_ = s.advance()
            seen |= set(range(slice_.physical_start, slice_.physical_end))
        assert seen == set(range(small_geometry.rows_per_bank))

    def test_invalid_refs_per_window(self, small_geometry):
        with pytest.raises(ValueError):
            RefreshScheduler(small_geometry, refs_per_window=0)
        with pytest.raises(ValueError):
            RefreshScheduler(
                small_geometry,
                refs_per_window=small_geometry.rows_per_bank + 1)

    def test_non_dividing_refs_still_cover_bank_once(self,
                                                     small_geometry):
        # 1000 REFs over 4096 rows: uneven slices, full single cover.
        s = RefreshScheduler(small_geometry, refs_per_window=1000)
        counts = {}
        for _ in range(1000):
            sl = s.advance()
            for p in range(sl.physical_start, sl.physical_end):
                counts[p] = counts.get(p, 0) + 1
        assert len(counts) == small_geometry.rows_per_bank
        assert set(counts.values()) == {1}
        assert s.windows_completed == 1

    def test_peek_does_not_advance(self, small_geometry):
        s = RefreshScheduler(small_geometry)
        first = s.peek_slice()
        assert s.refptr == 0
        assert s.advance().physical_start == first.physical_start

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20)
    def test_every_row_refreshed_exactly_once_per_window(self, log_scale):
        g = DramGeometry(rows_per_bank=1024, rows_per_subarray=256,
                         rows_per_ref=8)
        refs = 128 // (2 ** (log_scale - 1)) or 1
        if g.rows_per_bank % refs:
            return
        s = RefreshScheduler(g, refs_per_window=refs)
        counts = {}
        for _ in range(refs):
            sl = s.advance()
            for p in range(sl.physical_start, sl.physical_end):
                counts[p] = counts.get(p, 0) + 1
        assert set(counts.values()) == {1}
        assert len(counts) == g.rows_per_bank
