"""Tests for DDR5 timing constraint trackers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.timing import BankTiming, BusTracker, FawTracker
from repro.params import DramTimings, ns


class TestBankTiming:
    def test_trc_spacing_between_activates(self):
        bt = BankTiming(DramTimings())
        bt.activate(0)
        assert bt.earliest_activate(0) == ns(46)

    def test_tras_before_precharge(self):
        bt = BankTiming(DramTimings())
        bt.activate(1000)
        assert bt.earliest_precharge(1000) == 1000 + ns(32)

    def test_precharge_completion_adds_trp(self):
        bt = BankTiming(DramTimings())
        bt.activate(0)
        done = bt.precharge(ns(32))
        assert done == ns(32) + ns(14)
        assert bt.earliest_activate(0) == max(ns(46), done)

    def test_block_until_delays_activate(self):
        bt = BankTiming(DramTimings())
        bt.block_until(ns(500))
        assert bt.earliest_activate(0) == ns(500)

    def test_block_until_monotone(self):
        bt = BankTiming(DramTimings())
        bt.block_until(ns(500))
        bt.block_until(ns(100))
        assert bt.blocked_until == ns(500)

    def test_row_open_tracking(self):
        bt = BankTiming(DramTimings())
        assert not bt.row_open
        bt.activate(0)
        assert bt.row_open
        bt.precharge(ns(32))
        assert not bt.row_open

    def test_prac_timings_slow_turnaround(self):
        normal = BankTiming(DramTimings())
        prac = BankTiming(DramTimings().with_prac())
        normal.activate(0)
        prac.activate(0)
        n_done = normal.precharge(normal.earliest_precharge(0))
        p_done = prac.precharge(prac.earliest_precharge(0))
        # PRAC: earlier precharge allowed (tRAS 16) but much longer tRP.
        assert p_done == ns(16) + ns(36)
        assert n_done == ns(32) + ns(14)
        assert prac.earliest_activate(0) == ns(52)  # tRC dominates


class TestFawTracker:
    def test_first_four_acts_unconstrained(self):
        f = FawTracker(DramTimings())
        for i in range(4):
            assert f.earliest_activate(i) == i
            f.activate(i)

    def test_fifth_act_waits_tfaw(self):
        f = FawTracker(DramTimings())
        for i in range(4):
            f.activate(i * 100)
        assert f.earliest_activate(400) == ns(13.333)

    def test_out_of_order_booking_does_not_convoy(self):
        # A far-future ACT (blocked bank) must not delay ACTs that can
        # issue now: the window at `now` holds only near-term ACTs.
        f = FawTracker(DramTimings())
        f.activate(ns(1000))  # delayed ACT booked in the future
        assert f.earliest_activate(0) == 0
        f.activate(0)
        f.activate(1)
        f.activate(2)
        # Window around t=3 contains acts at 0,1,2 and the future one is
        # outside; a fourth near-term ACT fits only after sliding.
        t = f.earliest_activate(3)
        assert t == 3

    def test_window_slides_past_oldest(self):
        f = FawTracker(DramTimings())
        for t in (0, 1, 2, 3):
            f.activate(t)
        assert f.earliest_activate(4) == ns(13.333)

    def test_release_before_prunes(self):
        f = FawTracker(DramTimings())
        for t in (0, 1, 2, 3):
            f.activate(t)
        f.release_before(ns(100))
        assert f._times == []
        assert f.earliest_activate(ns(100)) == ns(100)

    @given(st.lists(st.integers(0, 200_000), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_never_more_than_four_acts_in_any_window(self, asks):
        timings = DramTimings()
        f = FawTracker(timings)
        placed = []
        for ask in sorted(asks):
            t = f.earliest_activate(ask)
            f.activate(t)
            placed.append(t)
        placed.sort()
        for i, t in enumerate(placed):
            in_window = [u for u in placed
                         if t - timings.tFAW < u <= t]
            assert len(in_window) <= 4


class TestBusTracker:
    def test_transfer_occupies_tburst(self):
        bus = BusTracker(DramTimings())
        end = bus.transfer(0)
        assert end == ns(3)
        assert bus.earliest_transfer(0) == ns(3)

    def test_future_booking_leaves_gap_usable(self):
        bus = BusTracker(DramTimings())
        bus.transfer(ns(100))
        # The bus is idle before the future slot: a near-term transfer
        # must not wait for it.
        assert bus.earliest_transfer(0) == 0
        end = bus.transfer(0)
        assert end == ns(3)

    def test_back_to_back_transfers_serialize(self):
        bus = BusTracker(DramTimings())
        a = bus.transfer(0)
        b = bus.transfer(0)
        assert b == a + ns(3)

    def test_transfer_fits_in_gap(self):
        bus = BusTracker(DramTimings())
        bus.transfer(0)          # [0, 3ns)
        bus.transfer(ns(10))     # [10, 13ns)
        end = bus.transfer(ns(3))
        assert end == ns(6)      # fits in [3, 10) gap

    def test_book_at_found_gap_matches_transfer(self):
        searched, scanned = BusTracker(DramTimings()), BusTracker(
            DramTimings())
        for at in (0, ns(10), ns(3), 0, ns(4), ns(11)):
            assert searched.book(searched.earliest_transfer(at)) == \
                scanned.transfer(at)
        assert searched._slots == scanned._slots

    def test_utilization(self):
        bus = BusTracker(DramTimings())
        for _ in range(10):
            bus.transfer(0)
        assert bus.utilization(ns(60)) == 0.5

    def test_release_before_keeps_math_right(self):
        bus = BusTracker(DramTimings())
        for i in range(20):
            bus.transfer(i * ns(3))
        bus.release_before(ns(30))
        assert bus.earliest_transfer(ns(30)) == ns(60)
