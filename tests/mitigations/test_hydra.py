"""Tests for the Hydra related-work tracker."""

import pytest

from repro.dram.refresh import RefreshScheduler
from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.hydra import HydraTracker

REF = MitigationSlotSource.REF


class TestHydra:
    def make(self, **kw):
        defaults = dict(rows_per_bank=1024, rows_per_group=64,
                        group_threshold=10, mitigation_threshold=20,
                        cache_entries=4)
        defaults.update(kw)
        return HydraTracker(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(rows_per_group=100)  # does not divide
        with pytest.raises(ValueError):
            self.make(mitigation_threshold=5)

    def test_cold_group_stays_in_group_stage(self):
        t = self.make()
        for _ in range(10):
            t.on_activate(5, 0)
        assert t._row_counts.get(5, 0) == 0
        assert t.dram_lookups == 0

    def test_overflow_installs_sound_upper_bounds(self):
        t = self.make()
        for _ in range(11):
            t.on_activate(5, 0)
        # Row 5's exact counter starts at the group count: it can only
        # overestimate, never undercount (security-sound).
        assert t._row_counts.get(5, 0) == 11
        assert t._row_counts.get(6, 0) == 10  # same group, never activated

    def test_mitigation_at_exact_threshold(self):
        t = self.make()
        for _ in range(20):
            t.on_activate(5, 0)
        assert t.on_mitigation_slot(0, REF) == [5]
        assert t._row_counts.get(5, 0) == 0

    def test_cache_misses_cost_dram_lookups(self):
        t = self.make(cache_entries=2)
        for _ in range(11):
            t.on_activate(0, 0)  # group 0 overflows
        lookups = t.dram_lookups
        # Touch more distinct rows than the cache holds: every new row
        # is a miss.
        for row in (1, 2, 3, 4):
            t.on_activate(row, 0)
        assert t.dram_lookups >= lookups + 4

    def test_ref_resets_row_counters_and_wrap_resets_groups(self,
                                                            tiny_geometry):
        t = HydraTracker(rows_per_bank=256, rows_per_group=16,
                         group_threshold=4, mitigation_threshold=8)
        scheduler = RefreshScheduler(tiny_geometry)
        for _ in range(6):
            t.on_activate(0, 0)
        t.on_ref_slice(scheduler.advance(), 0)  # sweeps rows 0..15
        assert t._row_counts.get(0, 0) == 0
        for _ in range(scheduler.refs_per_window - 1):
            t.on_ref_slice(scheduler.advance(), 0)
        assert t._group_counts == {}

    def test_sram_storage_is_small(self):
        t = HydraTracker()  # full-size defaults
        # Far below a per-row table (128K rows x 10b = 160KB).
        assert t.storage_bits() / 8 < 2048

