"""Tests for Naive MIRZA (MINT + ABO + queue, no filtering)."""

import random

from repro.mitigations.naive_mirza import NaiveMirzaTracker
from repro.mitigations.base import MitigationSlotSource


class TestNaiveMirza:
    def test_every_act_after_first_participates(self, small_geometry):
        t = NaiveMirzaTracker(mint_window=1, rng=random.Random(0),
                              geometry=small_geometry)
        t.on_activate(0, 0)   # the single region counter goes 0 -> 1
        t.on_activate(1, 0)   # escapes (counter 1 > FTH 0)
        assert t.mint.observed == 1

    def test_fth_is_zero(self, small_geometry):
        t = NaiveMirzaTracker(mint_window=4, geometry=small_geometry)
        assert t.config.fth == 0
        assert t.config.num_regions == 1

    def test_selected_rows_queue_and_alert(self, small_geometry):
        t = NaiveMirzaTracker(mint_window=1, queue_entries=2,
                              rng=random.Random(0),
                              geometry=small_geometry)
        for row in range(4):
            t.on_activate(row, 0)
        assert t.wants_alert()
        rows = t.on_mitigation_slot(0, MitigationSlotSource.ALERT)
        assert len(rows) == 1

    def test_selection_rate_close_to_one_per_window(self, small_geometry):
        t = NaiveMirzaTracker(mint_window=8, queue_entries=10 ** 6,
                              qth=10 ** 6, rng=random.Random(1),
                              geometry=small_geometry)
        # Distinct rows: already-queued rows bypass MINT (case 2 of
        # Section V-B), so a repeating pattern would undercount.
        for i in range(801):
            t.on_activate(i, 0)
        assert abs(t.mint.selected - 100) <= 1
