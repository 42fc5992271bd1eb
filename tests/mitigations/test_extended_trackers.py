"""Tests for the extended baselines: PrIDE and ProTRR."""

import random

import pytest

from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.pride import PrideTracker
from repro.mitigations.protrr import ProTrrTracker

REF = MitigationSlotSource.REF
RFM = MitigationSlotSource.RFM


class TestPride:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrideTracker(insertion_probability=0.0)
        with pytest.raises(ValueError):
            PrideTracker(queue_entries=0)

    def test_insertion_probability_one_enqueues_all(self):
        t = PrideTracker(insertion_probability=1.0, queue_entries=8)
        for row in range(5):
            t.on_activate(row, 0)
        assert len(t._fifo) == 5

    def test_fifo_order(self):
        t = PrideTracker(insertion_probability=1.0, queue_entries=8)
        t.on_activate(3, 0)
        t.on_activate(7, 0)
        assert t.on_mitigation_slot(0, REF) == [3]
        assert t.on_mitigation_slot(0, RFM) == [7]

    def test_full_queue_drops(self):
        t = PrideTracker(insertion_probability=1.0, queue_entries=2)
        for row in range(4):
            t.on_activate(row, 0)
        assert t.dropped == 2
        assert len(t._fifo) == 2

    def test_insertion_rate_close_to_p(self):
        t = PrideTracker(insertion_probability=0.125,
                         queue_entries=10 ** 6,
                         rng=random.Random(5))
        n = 8000
        for i in range(n):
            t.on_activate(i, 0)
        expected = n * 0.125
        assert abs(t.insertions - expected) < 5 * expected ** 0.5

    def test_ref_cadence(self):
        t = PrideTracker(insertion_probability=1.0,
                         refs_per_mitigation=2)
        t.on_activate(9, 0)
        assert t.on_mitigation_slot(0, REF) == []
        assert t.on_mitigation_slot(0, REF) == [9]

    def test_storage_tiny(self):
        assert PrideTracker().storage_bits() / 8 < 16


class TestProTrr:
    def test_tracked_increment(self):
        t = ProTrrTracker(entries=4)
        for _ in range(3):
            t.on_activate(1, 0)
        assert t._table.get(1, 0) == 3

    def test_decrement_all_on_full_table(self):
        t = ProTrrTracker(entries=2)
        t.on_activate(1, 0)
        t.on_activate(1, 0)
        t.on_activate(2, 0)
        t.on_activate(3, 0)  # full: everyone decrements
        assert t._table.get(1, 0) == 1
        assert t._table.get(2, 0) == 0  # zeroed and released
        assert t._table.get(3, 0) == 1  # claimed the freed slot
        assert t.decrements == 1

    def test_decrement_without_free_slot_drops_incoming(self):
        t = ProTrrTracker(entries=2)
        for _ in range(3):
            t.on_activate(1, 0)
            t.on_activate(2, 0)
        t.on_activate(3, 0)
        # Both survivors stayed above zero: row 3 was not adopted.
        assert t._table.get(3, 0) == 0
        assert t._table.get(1, 0) == 2

    def test_misra_gries_undercount_bound(self):
        # Classic guarantee: true_count - N/(k+1) <= tracked_count.
        k = 8
        t = ProTrrTracker(entries=k)
        rng = random.Random(1)
        true = {}
        n = 3000
        for _ in range(n):
            row = rng.randrange(40)
            true[row] = true.get(row, 0) + 1
            t.on_activate(row, 0)
        for row, count in true.items():
            assert t._table.get(row, 0) >= count - n / (k + 1) - 1

    def test_mitigates_max_and_releases(self):
        t = ProTrrTracker(entries=4, refs_per_mitigation=1)
        for _ in range(5):
            t.on_activate(9, 0)
        t.on_activate(2, 0)
        assert t.on_mitigation_slot(0, REF) == [9]
        assert t._table.get(9, 0) == 0

    def test_storage_7kb_at_2k_entries(self):
        assert ProTrrTracker(entries=2048).storage_bits() / 8 == 7168

