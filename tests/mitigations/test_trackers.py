"""Tests for the baseline trackers: TRR, PARA, Mithril, MINT, PRAC."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.refresh import RefreshScheduler
from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import ParaTracker
from repro.mitigations.prac import PracTracker, prac_alert_threshold
from repro.mitigations.trr import TrrTracker
from repro.security.area import (
    mithril_storage_bytes_per_bank,
    trr_storage_bytes_per_bank,
)

REF = MitigationSlotSource.REF
RFM = MitigationSlotSource.RFM
ALERT = MitigationSlotSource.ALERT


class TestNoMitigation:
    def test_never_alerts_never_mitigates(self):
        t = NoMitigation()
        for i in range(100):
            t.on_activate(i, 0)
        assert not t.wants_alert()
        assert t.on_mitigation_slot(0, REF) == []


class TestTrr:
    def test_tracks_and_mitigates_hot_row(self):
        t = TrrTracker(entries=4, refs_per_mitigation=1,
                       mitigation_threshold=8)
        for _ in range(10):
            t.on_activate(42, 0)
        assert t.on_mitigation_slot(0, REF) == [42]

    def test_respects_mitigation_cadence(self):
        t = TrrTracker(entries=4, refs_per_mitigation=4,
                       mitigation_threshold=1)
        t.on_activate(42, 0)
        slots = [t.on_mitigation_slot(0, REF) for _ in range(4)]
        assert slots[:3] == [[], [], []]
        assert slots[3] == [42]

    def test_cold_max_not_mitigated(self):
        t = TrrTracker(entries=4, refs_per_mitigation=1,
                       mitigation_threshold=100)
        t.on_activate(42, 0)
        assert t.on_mitigation_slot(0, REF) == []

    def test_eviction_of_minimum_entry(self):
        t = TrrTracker(entries=2, refs_per_mitigation=1)
        t.on_activate(1, 0)
        t.on_activate(1, 0)
        t.on_activate(2, 0)
        t.on_activate(3, 0)  # evicts 2 (the minimum), not 1
        assert set(t._table) == {1, 3}

    def test_ignores_non_ref_slots(self):
        t = TrrTracker(entries=4, refs_per_mitigation=1,
                       mitigation_threshold=1)
        t.on_activate(42, 0)
        assert t.on_mitigation_slot(0, RFM) == []

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TrrTracker(entries=0)


class TestPara:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ParaTracker(0.0)
        with pytest.raises(ValueError):
            ParaTracker(1.5)

    def test_probability_one_marks_everything(self):
        t = ParaTracker(1.0, random.Random(0))
        t.on_activate(7, 0)
        assert t.on_mitigation_slot(0, REF) == [7]

    def test_selection_rate_close_to_p(self):
        t = ParaTracker(0.25, random.Random(1), pending_capacity=10 ** 6)
        n = 4000
        for i in range(n):
            t.on_activate(i, 0)
        selected = len(t._pending)
        assert abs(selected - n * 0.25) < 4 * (n * 0.25 * 0.75) ** 0.5

    def test_capacity_drops_counted(self):
        t = ParaTracker(1.0, random.Random(0), pending_capacity=2)
        for i in range(5):
            t.on_activate(i, 0)
        assert t.dropped == 3

    def test_fifo_mitigation_order(self):
        t = ParaTracker(1.0, random.Random(0), pending_capacity=4)
        t.on_activate(1, 0)
        t.on_activate(2, 0)
        assert t.on_mitigation_slot(0, REF) == [1]
        assert t.on_mitigation_slot(0, RFM) == [2]


class TestMithril:
    def test_counts_tracked_rows(self):
        t = MithrilTracker(entries=4)
        for _ in range(5):
            t.on_activate(1, 0)
        assert t._table[1] == 5

    def test_misra_gries_replacement_adopts_floor(self):
        t = MithrilTracker(entries=2)
        for _ in range(5):
            t.on_activate(1, 0)
        for _ in range(3):
            t.on_activate(2, 0)
        t.on_activate(3, 0)  # replaces row 2 (min=3): count = 3 + 1
        assert t._table[3] == 4
        assert t.spills == 1

    def test_mitigates_max_under_ref_cadence(self):
        t = MithrilTracker(entries=8, refs_per_mitigation=2)
        for _ in range(9):
            t.on_activate(5, 0)
        assert t.on_mitigation_slot(0, REF) == []
        assert t.on_mitigation_slot(0, REF) == [5]

    def test_mitigation_resets_to_floor_not_zero(self):
        t = MithrilTracker(entries=2, refs_per_mitigation=1)
        for _ in range(5):
            t.on_activate(1, 0)
        for _ in range(3):
            t.on_activate(2, 0)
        t.on_mitigation_slot(0, REF)
        assert t._table[1] == 3  # floor = row 2's count

    def test_mitigation_resets_to_zero_while_an_entry_is_free(self):
        # A free entry holds 0, so the table minimum is 0 until the
        # table fills: the mitigated row must not restart at row 2's
        # count and stay ahead of it.
        t = MithrilTracker(entries=3, refs_per_mitigation=1)
        for _ in range(5):
            t.on_activate(1, 0)
        for _ in range(3):
            t.on_activate(2, 0)
        assert t.on_mitigation_slot(0, REF) == [1]
        assert t._table == {1: 0, 2: 3}
        assert t.on_mitigation_slot(0, REF) == [2]

    def test_counter_soundness_upper_bound(self):
        # Misra-Gries invariant: the tracked count never underestimates
        # the true count (it may overestimate by the adopted floor).
        rng = random.Random(3)
        t = MithrilTracker(entries=8)
        true = {}
        for _ in range(2000):
            row = rng.randrange(40)
            true[row] = true.get(row, 0) + 1
            t.on_activate(row, 0)
        for row, count in t._table.items():
            assert count >= 0
            # The max-tracked row's count bounds its true count.
        top = max(t._table, key=t._table.get)
        assert t._table[top] >= true.get(top, 0) * 0.5


def _mithril_floor(t):
    """The count every untracked row's activations stay under: the
    table minimum once full, zero while an entry is still free."""
    if len(t._table) < t.entries:
        return 0
    return min(t._table.values())


class TestMithrilCounterSummary:
    """The counter-summary guarantees that make mitigating the maximum
    entry sound, over arbitrary activation sequences."""

    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.integers(min_value=0, max_value=15),
                    max_size=300))
    @settings(max_examples=100)
    def test_counts_sum_to_activations(self, entries, rows):
        # A replacement adopts the evicted minimum plus one, so every
        # activation adds exactly one to the table total.
        t = MithrilTracker(entries=entries)
        for row in rows:
            t.on_activate(row, 0)
        assert sum(t._table.values()) == len(rows)
        assert len(t._table) <= entries

    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.integers(min_value=0, max_value=15),
                    max_size=300))
    @settings(max_examples=100)
    def test_no_row_is_undercounted(self, entries, rows):
        t = MithrilTracker(entries=entries)
        for row in rows:
            t.on_activate(row, 0)
        floor = _mithril_floor(t)
        for row, count in Counter(rows).items():
            assert count <= t._table.get(row, floor)

    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.one_of(st.integers(min_value=0, max_value=15),
                              st.none()), max_size=300))
    @settings(max_examples=100)
    def test_counts_bound_acts_since_mitigation(self, entries, ops):
        """``None`` is a REF slot.  After every step, each row's
        activations since its last mitigation stay within its count,
        or within the floor once it has been replaced."""
        t = MithrilTracker(entries=entries, refs_per_mitigation=1)
        since = {}
        for op in ops:
            if op is None:
                for row in t.on_mitigation_slot(0, REF):
                    since[row] = 0
            else:
                t.on_activate(op, 0)
                since[op] = since.get(op, 0) + 1
            floor = _mithril_floor(t)
            for row, acts in since.items():
                assert acts <= t._table.get(row, floor)


@pytest.mark.parametrize("make,priced_bytes,paper_bytes", [
    (lambda: TrrTracker(), trr_storage_bytes_per_bank, 84),
    (lambda: MithrilTracker(), mithril_storage_bytes_per_bank, 7168),
], ids=["trr", "mithril"])
def test_table_fills_to_the_priced_entries_and_no_further(
        make, priced_bytes, paper_bytes):
    """The area model prices the default table (Table XII's 84 B TRR,
    Section VIII-A's 7 KB Mithril); a stream over more rows than it has
    entries fills it and never grows it past that size."""
    t = make()
    rng = random.Random(2)
    largest = 0
    for i in range(3 * t.entries):
        t.on_activate(rng.randrange(4 * t.entries), 0)
        if i % 50 == 0:
            t.on_mitigation_slot(0, REF)
        largest = max(largest, len(t._table))
    assert largest == t.entries
    assert priced_bytes(t.entries) == paper_bytes


class TestMintTracker:
    def test_selection_flows_to_rfm_slot(self):
        t = MintTracker(window=1, rng=random.Random(0))
        t.on_activate(9, 0)
        assert t.on_mitigation_slot(0, RFM) == [9]

    def test_ref_pacing(self):
        t = MintTracker(window=1, refs_per_mitigation=2,
                        rng=random.Random(0))
        t.on_activate(9, 0)
        assert t.on_mitigation_slot(0, REF) == []
        assert t.on_mitigation_slot(0, REF) == [9]

    def test_rfm_paced_tracker_declines_ref(self):
        t = MintTracker(window=1, refs_per_mitigation=0,
                        rng=random.Random(0))
        t.on_activate(9, 0)
        assert t.on_mitigation_slot(0, REF) == []
        assert t.on_mitigation_slot(0, RFM) == [9]

    def test_dmq_overflow_drops_oldest(self):
        t = MintTracker(window=1, dmq_entries=2, rng=random.Random(0))
        for row in (1, 2, 3):
            t.on_activate(row, 0)
        assert t.dropped_selections == 1
        assert t.on_mitigation_slot(0, RFM) == [2]

    def test_one_selection_per_window(self):
        t = MintTracker(window=10, dmq_entries=10 ** 6,
                        rng=random.Random(5))
        for i in range(100):
            t.on_activate(i, 0)
        assert len(t._pending) == 10


class TestPrac:
    def test_alert_threshold_leaves_abo_margin(self):
        assert prac_alert_threshold(1000) == 1000 - 7

    def test_alert_threshold_too_low(self):
        with pytest.raises(ValueError):
            prac_alert_threshold(5)

    def test_alert_asserted_at_threshold(self):
        t = PracTracker(trhd=100)
        for _ in range(92):
            t.on_activate(3, 0)
        assert not t.wants_alert()
        t.on_activate(3, 0)
        assert t.wants_alert()

    def test_mitigation_resets_counter(self):
        t = PracTracker(trhd=100)
        for _ in range(93):
            t.on_activate(3, 0)
        assert t.on_mitigation_slot(0, ALERT) == [3]
        assert not t.wants_alert()
        assert t._counters[3] == 0

    def test_ref_slice_resets_swept_rows(self, small_geometry):
        t = PracTracker(trhd=100)
        scheduler = RefreshScheduler(small_geometry)
        t.on_activate(0, 0)
        t.on_activate(100, 0)
        t.on_ref_slice(scheduler.advance(), 0)  # sweeps rows 0..15
        assert t._counters[100] == 1
        assert 0 not in t._counters

    def test_declines_ref_slots(self):
        t = PracTracker(trhd=100)
        for _ in range(95):
            t.on_activate(3, 0)
        assert t.on_mitigation_slot(0, REF) == []
        assert t.wants_alert()

    def test_multiple_rows_over_threshold_drain_in_order(self):
        t = PracTracker(trhd=100, alert_threshold=2)
        t.on_activate(1, 0)
        t.on_activate(1, 0)
        t.on_activate(2, 0)
        t.on_activate(2, 0)
        assert t.on_mitigation_slot(0, ALERT) == [1]
        assert t.wants_alert()
        assert t.on_mitigation_slot(0, ALERT) == [2]
        assert not t.wants_alert()
