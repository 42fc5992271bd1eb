"""Tests for DDR5 timing constraint trackers.

The controller's request path applies these rules inline; the tests
pin them on the reference trackers' methods
(``tests/mc/reference_controller.py``), which
``tests/mc/test_request_loop.py`` holds the request path to.
``FawTracker.earliest_activate`` is the tracker's own.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import DramTimings, ns

from tests.mc.reference_controller import (
    ReferenceBankTiming,
    ReferenceBusTracker,
    ReferenceFawTracker,
)


class TestBankTiming:
    def test_trc_spacing_between_activates(self):
        bt = ReferenceBankTiming(DramTimings())
        bt.activate(0)
        assert bt.earliest_activate(0) == ns(46)

    def test_tras_before_precharge(self):
        bt = ReferenceBankTiming(DramTimings())
        bt.activate(1000)
        assert bt.earliest_precharge(1000) == 1000 + ns(32)

    def test_precharge_completion_adds_trp(self):
        bt = ReferenceBankTiming(DramTimings())
        bt.activate(0)
        done = bt.precharge(ns(32))
        assert done == ns(32) + ns(14)
        assert bt.earliest_activate(0) == max(ns(46), done)

    def test_block_until_delays_activate(self):
        bt = ReferenceBankTiming(DramTimings())
        bt.block_until(ns(500))
        assert bt.earliest_activate(0) == ns(500)

    def test_block_until_monotone(self):
        bt = ReferenceBankTiming(DramTimings())
        bt.block_until(ns(500))
        bt.block_until(ns(100))
        assert bt._blocked_until == ns(500)

    def test_row_open_tracking(self):
        bt = ReferenceBankTiming(DramTimings())
        assert not bt.row_open
        bt.activate(0)
        assert bt.row_open
        bt.precharge(ns(32))
        assert not bt.row_open

    def test_prac_timings_slow_turnaround(self):
        normal = ReferenceBankTiming(DramTimings())
        prac = ReferenceBankTiming(DramTimings().with_prac())
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
        f = ReferenceFawTracker(DramTimings())
        for i in range(4):
            assert f.earliest_activate(i) == i
            f.activate(i, 0)

    def test_fifth_act_waits_tfaw(self):
        f = ReferenceFawTracker(DramTimings())
        for i in range(4):
            f.activate(i * 100, 0)
        assert f.earliest_activate(400) == ns(13.333)

    def test_out_of_order_booking_does_not_convoy(self):
        # A far-future ACT (blocked bank) must not delay ACTs that can
        # issue now: the window at `now` holds only near-term ACTs.
        f = ReferenceFawTracker(DramTimings())
        f.activate(ns(1000), 0)  # delayed ACT booked in the future
        assert f.earliest_activate(0) == 0
        f.activate(0, 0)
        f.activate(1, 0)
        f.activate(2, 0)
        # Window around t=3 contains acts at 0,1,2 and the future one is
        # outside; a fourth near-term ACT fits only after sliding.
        t = f.earliest_activate(3)
        assert t == 3

    def test_window_slides_past_oldest(self):
        f = ReferenceFawTracker(DramTimings())
        for t in (0, 1, 2, 3):
            f.activate(t, 0)
        assert f.earliest_activate(4) == ns(13.333)

    def test_booking_forgets_acts_a_tfaw_before_its_arrival(self):
        timings = DramTimings()
        f = ReferenceFawTracker(timings)
        for t in (0, 1, 2, 3):
            f.activate(t, 0)
        # Arrival tFAW + 1 ps forgets the ACT at 0 and 1 (at or before
        # arrival - tFAW) and keeps 2 and 3.
        f.activate(timings.tFAW + 1, timings.tFAW + 1)
        assert f._times == [2, 3, timings.tFAW + 1]
        f.activate(ns(100), ns(100))
        assert f._times == [ns(100)]
        assert f.earliest_activate(ns(100)) == ns(100)

    @given(st.lists(st.integers(0, 200_000), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_never_more_than_four_acts_in_any_window(self, asks):
        timings = DramTimings()
        f = ReferenceFawTracker(timings)
        placed = []
        for ask in sorted(asks):
            t = f.earliest_activate(ask)
            f.activate(t, ask)
            placed.append(t)
        placed.sort()
        for i, t in enumerate(placed):
            in_window = [u for u in placed
                         if t - timings.tFAW < u <= t]
            assert len(in_window) <= 4


def _no_stall(t: int) -> int:
    return t


class TestBusTracker:
    def test_transfer_occupies_tburst(self):
        bus = ReferenceBusTracker(DramTimings())
        assert bus.reserve(0, 0, _no_stall) == (0, 0)
        # The CAS waits for the bus: it issues at the first free gap.
        assert bus.reserve(0, 0, _no_stall) == (ns(3), ns(3))

    def test_future_booking_leaves_gap_usable(self):
        bus = ReferenceBusTracker(DramTimings())
        assert bus.reserve(0, ns(100), _no_stall) == (ns(100), ns(100))
        # The bus is idle before the future slot: a near-term transfer
        # must not wait for it.
        assert bus.reserve(0, 0, _no_stall) == (0, 0)

    def test_back_to_back_transfers_serialize(self):
        bus = ReferenceBusTracker(DramTimings())
        _, a = bus.reserve(0, 0, _no_stall)
        _, b = bus.reserve(0, 0, _no_stall)
        assert b == a + ns(3)

    def test_transfer_fits_in_gap(self):
        bus = ReferenceBusTracker(DramTimings())
        bus.reserve(0, 0, _no_stall)          # [0, 3ns)
        bus.reserve(0, ns(10), _no_stall)     # [10, 13ns)
        assert bus.reserve(0, ns(3), _no_stall) == (ns(3), ns(3))

    def test_cas_past_the_first_gap_resumes_the_scan(self):
        bus = ReferenceBusTracker(DramTimings())
        for lower in (0, ns(10), ns(13)):     # [0,3) [10,13) [13,16)
            bus.reserve(0, lower, _no_stall)
        # The first gap is at 3 ns; the CAS at 8 ns lands past it, and
        # the burst goes after the two back-to-back slots.
        assert bus.reserve(0, ns(8), _no_stall) == (ns(8), ns(16))
        assert bus._slots == [0, ns(10), ns(13), ns(16)]

    def test_stall_window_moves_the_cas(self):
        from repro.mc.abo import StallWindows
        stalls = StallWindows()
        stalls.add(ns(1), ns(20))
        bus = ReferenceBusTracker(DramTimings())
        bus.reserve(0, ns(20), _no_stall)     # [20, 23ns)
        # The CAS would issue at 2 ns; the stall moves it to 20 ns,
        # past the first gap, and the burst books after [20, 23ns).
        assert bus.reserve(0, ns(2), stalls.adjust) == (ns(20), ns(23))

    def test_utilization(self):
        bus = ReferenceBusTracker(DramTimings())
        for _ in range(10):
            bus.reserve(0, 0, _no_stall)
        assert bus.utilization(ns(60)) == 0.5

    def test_slots_ending_by_the_arrival_are_forgotten(self):
        bus = ReferenceBusTracker(DramTimings())
        for i in range(20):
            bus.reserve(0, i * ns(3), _no_stall)
        # Arriving at 30 ns forgets the ten slots that end by then; the
        # ten that follow still push the burst to 60 ns.
        assert bus.reserve(ns(30), ns(30), _no_stall) == (ns(60), ns(60))
        assert bus._slots == [i * ns(3) for i in range(10, 21)]
