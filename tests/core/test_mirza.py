"""Tests for the assembled MIRZA tracker."""

import random

import pytest

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshScheduler
from repro.mitigations.base import MitigationSlotSource
from repro.params import DramGeometry


@pytest.fixture
def geometry(small_geometry):
    return small_geometry


def make_tracker(geometry, fth=10, window=4, regions=4, qth=16,
                 queue=4, seed=0, mapping=None):
    config = MirzaConfig(trhd=0, fth=fth, mint_window=window,
                         num_regions=regions, queue_entries=queue,
                         qth=qth)
    return MirzaTracker(config, geometry,
                        mapping or SequentialR2SA(geometry),
                        random.Random(seed))


class TestThreePaths:
    def test_filtered_act_touches_nothing_else(self, geometry):
        t = make_tracker(geometry, fth=10)
        t.on_activate(0, 0)
        assert t.rct.filtered_acts == 1
        assert t.mint.observed == 0
        assert len(t.queue) == 0

    def test_escaped_act_participates_in_mint(self, geometry):
        t = make_tracker(geometry, fth=2, window=4)
        for i in range(3):
            t.on_activate(i, 0)   # fill the region counter
        t.on_activate(3, 0)       # escapes
        assert t.mint.observed == 1

    def test_queued_row_increments_tardiness_not_mint(self, geometry):
        t = make_tracker(geometry, fth=0, window=1)
        t.on_activate(5, 0)   # filtered (counter 0 -> 1)
        t.on_activate(5, 0)   # escapes, W=1 selects, enqueued
        assert 5 in t.queue
        observed = t.mint.observed
        t.on_activate(5, 0)   # queued: tardiness bump only
        assert t.queue.tardiness(5) == 2
        assert t.mint.observed == observed

    def test_selection_enqueues_with_count_one(self, geometry):
        t = make_tracker(geometry, fth=0, window=1)
        t.on_activate(7, 0)
        t.on_activate(7, 0)
        assert t.queue.tardiness(7) == 1


class TestAlerting:
    def test_wants_alert_mirrors_queue(self, geometry):
        t = make_tracker(geometry, fth=0, window=1, queue=1)
        assert not t.wants_alert()
        t.on_activate(1, 0)
        t.on_activate(1, 0)
        assert t.wants_alert()

    def test_alert_slot_mitigates_max_entry(self, geometry):
        t = make_tracker(geometry, fth=0, window=1, queue=4)
        for row in (1, 2):
            t.on_activate(row, 0)
            t.on_activate(row, 0)
        for _ in range(5):
            t.on_activate(2, 0)
        rows = t.on_mitigation_slot(0, MitigationSlotSource.ALERT)
        assert rows == [2]

    def test_ref_slot_declined(self, geometry):
        # MIRZA never cannibalises refresh time (Table XII).
        t = make_tracker(geometry, fth=0, window=1)
        t.on_activate(1, 0)
        t.on_activate(1, 0)
        assert t.on_mitigation_slot(0, MitigationSlotSource.REF) == []
        assert 1 in t.queue

    def test_rfm_slot_accepted(self, geometry):
        t = make_tracker(geometry, fth=0, window=1)
        t.on_activate(1, 0)
        t.on_activate(1, 0)
        assert t.on_mitigation_slot(0, MitigationSlotSource.RFM) == [1]

    def test_empty_queue_yields_no_mitigation(self, geometry):
        t = make_tracker(geometry)
        assert t.on_mitigation_slot(0, MitigationSlotSource.ALERT) == []


class TestRefreshIntegration:
    def test_ref_slices_reset_rct(self, geometry):
        t = make_tracker(geometry, fth=3)
        scheduler = RefreshScheduler(geometry)
        for _ in range(10):
            t.on_activate(0, 0)
        refs = t.rct.region_size // scheduler.rows_per_ref
        for _ in range(refs):
            t.on_ref_slice(scheduler.advance(), 0)
        assert t.rct.count(0) == 0


class TestMappings:
    def test_strided_mapping_spreads_regions(self, geometry):
        t = make_tracker(geometry, fth=2, regions=4,
                         mapping=StridedR2SA(geometry))
        # Consecutive logical rows land in different regions: none
        # escape with only 3 ACTs each spread over 4 regions.
        escaped_before = t.rct.escaped_acts
        for row in range(12):
            t.on_activate(row, 0)
        assert t.rct.escaped_acts == escaped_before

    def test_sequential_mapping_concentrates(self, geometry):
        t = make_tracker(geometry, fth=2, regions=4,
                         mapping=SequentialR2SA(geometry))
        for row in range(12):
            t.on_activate(row, 0)
        assert t.rct.escaped_acts == 12 - 3


class TestReporting:
    def test_storage_bits_sum_components(self, geometry):
        t = make_tracker(geometry)
        row_bits = (geometry.rows_per_bank - 1).bit_length()
        expected = (t.rct.storage_bits()
                    + t.queue.storage_bits(row_bits)
                    + t.mint.storage_bits(row_bits))
        assert t.storage_bits() == expected

    def test_full_scale_storage_about_196_bytes(self):
        geometry = DramGeometry()
        config = MirzaConfig.paper_config(1000)
        t = MirzaTracker(config, geometry, StridedR2SA(geometry),
                         random.Random(0))
        assert 180 <= t.storage_bits() / 8 <= 215
