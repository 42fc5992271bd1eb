"""Tests for Bank state and the ground-truth activation oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank, RowActivationOracle
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshSlice


class TestRowActivationOracle:
    def test_counts_activations(self):
        o = RowActivationOracle()
        assert o.on_activate(5) == 1
        assert o.on_activate(5) == 2
        assert o.count(5) == 2
        assert o.count(6) == 0

    def test_refresh_resets_count(self):
        o = RowActivationOracle()
        for _ in range(10):
            o.on_activate(5)
        o.on_refresh(RefreshSlice(ref_index=0, physical_start=5,
                                  physical_end=6, mapping=SequentialR2SA()))
        assert o.count(5) == 0

    def test_max_unmitigated_is_sticky_across_refresh(self):
        o = RowActivationOracle()
        for _ in range(10):
            o.on_activate(5)
        o.on_refresh(RefreshSlice(ref_index=0, physical_start=5,
                                  physical_end=6, mapping=SequentialR2SA()))
        assert o.max_unmitigated == 10
        assert o.max_row == 5

    def test_mitigation_resets_aggressor(self):
        o = RowActivationOracle()
        for _ in range(7):
            o.on_activate(9)
        o.on_mitigation(9)
        assert o.count(9) == 0
        assert o.max_unmitigated == 7

    def test_attack_succeeded_strictly_greater(self):
        o = RowActivationOracle()
        for _ in range(100):
            o.on_activate(1)
        assert not o.attack_succeeded(100)
        assert o.attack_succeeded(99)

    def test_rows_refreshed_bulk(self):
        o = RowActivationOracle()
        for r in range(5):
            o.on_activate(r)
        o.on_refresh(RefreshSlice(ref_index=0, physical_start=0,
                                  physical_end=3, mapping=SequentialR2SA()))
        assert [o.count(r) for r in range(5)] == [0, 0, 0, 1, 1]

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_max_equals_true_max(self, rows):
        o = RowActivationOracle()
        counts = {}
        best = 0
        for r in rows:
            counts[r] = counts.get(r, 0) + 1
            best = max(best, counts[r])
            o.on_activate(r)
        assert o.max_unmitigated == best


class TestBank:
    def test_activate_opens_row(self, small_geometry):
        b = Bank(0, small_geometry)
        b.activate(100)
        assert b.open_row == 100
        assert b.total_activations == 1

    def test_activate_out_of_range(self, small_geometry):
        b = Bank(0, small_geometry)
        with pytest.raises(ValueError):
            b.activate(small_geometry.rows_per_bank)
        with pytest.raises(ValueError):
            b.activate(-1)

    def test_mitigate_refreshes_four_victims(self, small_geometry):
        b = Bank(0, small_geometry)
        victims = b.mitigate(100, blast_radius=2)
        assert victims == 4
        assert b.victim_rows_refreshed == 4
        assert b.total_mitigations == 1

    def test_mitigate_at_subarray_edge_fewer_victims(self, small_geometry):
        b = Bank(0, small_geometry)
        assert b.mitigate(0, blast_radius=2) == 2

    def test_mitigate_resets_oracle(self, small_geometry):
        b = Bank(0, small_geometry)
        for _ in range(50):
            b.activate(7)
        b.mitigate(7)
        assert b.oracle.count(7) == 0

    def test_refresh_rows_resets_counts(self, small_geometry):
        b = Bank(0, small_geometry)
        b.activate(3)
        b.refresh(RefreshSlice(ref_index=0, physical_start=3,
                               physical_end=4, mapping=b.mapping))
        assert b.oracle.count(3) == 0

    def test_strided_mapping_victims(self, small_geometry):
        mapping = StridedR2SA(small_geometry)
        b = Bank(0, small_geometry, mapping)
        row = 2 * small_geometry.subarrays_per_bank + 1
        b.activate(row)
        victims = mapping.physical_neighbors(row, 2)
        assert all(mapping.subarray_of(v) == mapping.subarray_of(row)
                   for v in victims)
