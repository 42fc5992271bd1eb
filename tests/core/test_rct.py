"""Tests for the Region Count Table: filtering and safe reset."""

import pytest

from repro.core.rct import RegionCountTable, ResetPolicy
from repro.dram.refresh import RefreshScheduler
from repro.params import DramGeometry


def make_rct(geometry, num_regions=4, fth=10,
             policy=ResetPolicy.SAFE):
    return RegionCountTable(num_regions, fth, geometry, policy)


class TestConstruction:
    def test_region_size(self, small_geometry):
        rct = make_rct(small_geometry, num_regions=4)
        assert rct.region_size == 1024

    def test_rejects_non_dividing_regions(self, small_geometry):
        with pytest.raises(ValueError):
            RegionCountTable(3, 10, small_geometry)

    def test_rejects_negative_fth(self, small_geometry):
        with pytest.raises(ValueError):
            RegionCountTable(4, -1, small_geometry)

    def test_rejects_zero_regions(self, small_geometry):
        with pytest.raises(ValueError):
            RegionCountTable(0, 10, small_geometry)


class TestFiltering:
    def test_first_fth_plus_one_acts_filtered(self, small_geometry):
        rct = make_rct(small_geometry, fth=10)
        results = [rct.on_activate(0) for _ in range(11)]
        assert not any(results)
        assert rct.filtered_acts == 11

    def test_escape_after_threshold(self, small_geometry):
        rct = make_rct(small_geometry, fth=10)
        for _ in range(11):
            rct.on_activate(0)
        assert rct.on_activate(0) is True
        assert rct.escaped_acts == 1

    def test_counter_saturates_at_fth_plus_one(self, small_geometry):
        rct = make_rct(small_geometry, fth=10)
        for _ in range(100):
            rct.on_activate(0)
        assert rct.count(0) == 11

    def test_regions_independent(self, small_geometry):
        rct = make_rct(small_geometry, fth=5)
        for _ in range(6):
            rct.on_activate(0)
        assert rct.on_activate(0)           # region 0 saturated
        assert not rct.on_activate(1024)    # region 1 untouched

    def test_any_row_in_region_shares_counter(self, small_geometry):
        rct = make_rct(small_geometry, fth=5)
        for p in range(6):
            rct.on_activate(p)  # six different rows, same region
        assert rct.on_activate(7)

    def test_escape_fraction(self, small_geometry):
        rct = make_rct(small_geometry, fth=4)
        for _ in range(10):
            rct.on_activate(0)
        assert (rct.filtered_acts, rct.escaped_acts) == (5, 5)

    def test_fth_zero_escapes_after_first(self, small_geometry):
        rct = make_rct(small_geometry, fth=0)
        assert not rct.on_activate(0)
        assert rct.on_activate(0)


class TestEdgeRule:
    def test_no_edge_rule_when_region_is_subarray(self, small_geometry):
        rct = make_rct(small_geometry, num_regions=4, fth=5)
        # Region size == subarray size: edge increments never happen.
        rct.on_activate(1024)  # first row of region 1
        assert rct._counters[0] == 0

    def test_edge_row_increments_both_regions(self, small_geometry):
        # 8 regions of 512 rows: two regions per subarray.
        rct = RegionCountTable(8, 5, small_geometry)
        # Physical row 512 is the first row of region 1, in the middle
        # of subarray 0 -> it can hammer across into region 0.
        rct.on_activate(512)
        assert rct._counters[1] == 1
        assert rct._counters[0] == 1

    def test_last_row_of_region_increments_next(self, small_geometry):
        rct = RegionCountTable(8, 5, small_geometry)
        rct.on_activate(511)
        assert rct._counters[0] == 1
        assert rct._counters[1] == 1

    def test_subarray_boundary_is_not_an_edge(self, small_geometry):
        rct = RegionCountTable(8, 5, small_geometry)
        # Physical row 1024 starts region 2 AND subarray 1: isolated.
        rct.on_activate(1024)
        assert rct._counters[2] == 1
        assert rct._counters[1] == 0

    def test_participation_decision_uses_own_region(self, small_geometry):
        rct = RegionCountTable(8, 2, small_geometry)
        for _ in range(3):
            rct.on_activate(100)  # saturate region 0
        # Row 512 (region 1) still filtered despite region-0 spillover.
        assert not rct.on_activate(512)


def sweep_region(rct, scheduler, region):
    """Advance the refresh scheduler through exactly one region."""
    refs_per_region = rct.region_size // scheduler.rows_per_ref
    for _ in range(refs_per_region):
        rct.on_ref_slice(scheduler.advance())


class TestSafeReset:
    def test_reset_after_full_region_sweep(self, small_geometry):
        rct = make_rct(small_geometry, fth=5)
        scheduler = RefreshScheduler(small_geometry)
        for _ in range(10):
            rct.on_activate(0)
        sweep_region(rct, scheduler, 0)
        assert rct.count(0) == 0

    def test_acts_during_sweep_counted_in_rrc(self, small_geometry):
        rct = make_rct(small_geometry, fth=5)
        scheduler = RefreshScheduler(small_geometry)
        for _ in range(4):
            rct.on_activate(0)
        # Start the region's sweep: RRC inherits the count of 4.
        rct.on_ref_slice(scheduler.advance())
        assert rct.count(0) == 4
        # Two more ACTs mid-sweep reach both RCT entry and RRC.
        rct.on_activate(0)
        rct.on_activate(0)
        assert rct.count(0) == 6
        assert rct.on_activate(0)  # 6 > FTH=5: escapes via the RRC
        # Finish the sweep: the table entry (3 ACTs recorded mid-sweep)
        # takes over.
        refs_left = rct.region_size // scheduler.rows_per_ref - 1
        for _ in range(refs_left):
            rct.on_ref_slice(scheduler.advance())
        assert rct.count(0) == 3

    def test_eager_reset_undercounts(self, small_geometry):
        # Appendix B: eager reset lets 2*(FTH-1)-ish ACTs go unfiltered.
        fth = 5
        eager = make_rct(small_geometry, fth=fth,
                         policy=ResetPolicy.EAGER)
        scheduler = RefreshScheduler(small_geometry)
        for _ in range(fth):
            eager.on_activate(0)
        eager.on_ref_slice(scheduler.advance())  # reset at first REF
        # FTH more ACTs are filtered again: 2*FTH unfiltered in total.
        results = [eager.on_activate(0) for _ in range(fth)]
        assert not any(results)

    def test_safe_reset_does_not_undercount(self, small_geometry):
        fth = 5
        safe = make_rct(small_geometry, fth=fth)
        scheduler = RefreshScheduler(small_geometry)
        for _ in range(fth):
            safe.on_activate(0)
        safe.on_ref_slice(scheduler.advance())
        # Mid-sweep the RRC still remembers the FTH prior ACTs.
        assert safe.on_activate(0) is False  # count==fth, not > fth
        assert safe.on_activate(0) is True

    def test_lazy_reset_clears_only_at_region_end(self, small_geometry):
        fth = 5
        lazy = make_rct(small_geometry, fth=fth, policy=ResetPolicy.LAZY)
        scheduler = RefreshScheduler(small_geometry)
        for _ in range(fth + 1):
            lazy.on_activate(0)
        lazy.on_ref_slice(scheduler.advance())
        assert lazy.count(0) == fth + 1  # not reset yet
        sweep_region(lazy, scheduler, 0)
        assert lazy.count(0) == 0

    def test_reset_is_per_region(self, small_geometry):
        rct = make_rct(small_geometry, fth=5)
        scheduler = RefreshScheduler(small_geometry)
        for _ in range(10):
            rct.on_activate(0)
            rct.on_activate(1024)
        sweep_region(rct, scheduler, 0)
        assert rct.count(0) == 0
        assert rct.count(1) == 6  # saturated at FTH+1, untouched

    def test_coarse_slices_spanning_regions(self, small_geometry):
        # One REF covering multiple regions (heavily scaled windows).
        rct = RegionCountTable(4, 5, small_geometry)
        scheduler = RefreshScheduler(small_geometry, refs_per_window=2)
        for _ in range(10):
            rct.on_activate(0)
            rct.on_activate(1024)
            rct.on_activate(2048)
        rct.on_ref_slice(scheduler.advance())  # covers regions 0 and 1
        assert rct.count(0) == 0
        assert rct.count(1) == 0
        assert rct.count(2) == 6


class TestStorage:
    def test_counter_bits_fit_saturation_value(self, small_geometry):
        assert make_rct(small_geometry, fth=1500).counter_bits == 11
        assert make_rct(small_geometry, fth=3330).counter_bits == 12
        assert make_rct(small_geometry, fth=660).counter_bits == 10

    def test_storage_includes_rrc(self, small_geometry):
        rct = RegionCountTable(128, 1500,
                               DramGeometry())
        assert rct.storage_bits() == 129 * 11
