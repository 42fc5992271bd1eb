"""Property-based tests for the out-of-order timing trackers.

The lockstep classes drive the tFAW and bus bookings of
``tests/mc/reference_controller.py`` (the methods the controller's
request path inlines; ``FawTracker.earliest_activate`` is the
tracker's own) and the scan trackers of
``tests/dram/reference_timing.py`` (the neighbourhood loop on every
tFAW ask, and the release/scan/scan/book bus sequence) with the same
inputs, and require equal answers and equal bookings after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc.abo import StallWindows
from repro.params import DramTimings

from tests.dram.reference_timing import ScanBusTracker, ScanFawTracker
from tests.mc.reference_controller import (
    ReferenceBusTracker,
    ReferenceFawTracker,
)

TIMINGS = DramTimings()
FAW = TIMINGS.tFAW
BURST = TIMINGS.tBURST

# Offsets that land on the edges: equal times, exactly tFAW (or a
# burst) apart, and one picosecond either side.
EDGES = st.sampled_from([0, 1, BURST - 1, BURST, BURST + 1, FAW - 1,
                         FAW, FAW + 1, 2 * FAW])
OFFSET = st.one_of(EDGES, st.integers(0, 3 * FAW))

# One request: the arrival's step past the previous one, whether it
# books an ACT (a row hit books none, so the tFAW tracker keeps stale
# bookings), the asks the controller's fixpoint makes past the arrival
# (out of order across requests), and how far past the last answer the
# ACT lands.
FAW_REQUEST = st.tuples(
    st.one_of(EDGES, st.integers(0, FAW)),
    st.booleans(),
    st.lists(OFFSET, min_size=1, max_size=3),
    st.one_of(st.just(0), OFFSET))

# One request on the bus: the arrival's step and how far past the
# arrival the bank lets the CAS go.
BUS_REQUEST = st.tuples(st.one_of(EDGES, st.integers(0, 2 * FAW)), OFFSET)


def _live(times, arrival):
    """Bookings that can still share a window with a later ask."""
    return [t for t in times if t > arrival - FAW]


def _stalls(windows):
    stalls = StallWindows()
    for start, length in windows:
        stalls.add(start, start + length)
    return stalls


class TestFawLockstep:
    @given(st.lists(FAW_REQUEST, min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_matches_the_neighbourhood_loop(self, requests):
        ref, new = ScanFawTracker(TIMINGS), ReferenceFawTracker(TIMINGS)
        arrival = 0
        for step, books, asks, late in requests:
            arrival += step
            ref.release_before(arrival)
            answer = arrival
            for offset in asks:
                ask = arrival + offset
                answer = new.earliest_activate(ask)
                assert answer == ref.earliest_activate(ask)
            if books:
                at = answer + late
                ref.activate(at)
                new.activate(at, arrival)
                assert min(new._times) > arrival - FAW
            assert _live(new._times, arrival) == \
                _live(ref._times, arrival)

    @given(st.lists(st.integers(0, 12), min_size=4, max_size=40),
           st.lists(st.integers(0, 12), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_crowded_grid_matches(self, booked, asks):
        # Times on a quarter-tFAW grid: many equal bookings and many
        # asks exactly tFAW from one.
        ref, new = ScanFawTracker(TIMINGS), ReferenceFawTracker(TIMINGS)
        quarter = FAW // 4
        for slot in booked:
            ref.activate(slot * quarter)
            new.activate(slot * quarter, 0)
        for slot in asks:
            for ask in (slot * quarter, slot * FAW // 2 + FAW):
                assert new.earliest_activate(ask) == \
                    ref.earliest_activate(ask)


class TestBusLockstep:
    @given(st.lists(BUS_REQUEST, min_size=1, max_size=80),
           st.lists(st.tuples(st.integers(0, 40 * FAW),
                              st.integers(1, 2 * FAW)), max_size=6))
    @settings(max_examples=300)
    def test_matches_the_release_scan_book_sequence(self, requests,
                                                     windows):
        ref, new = ScanBusTracker(TIMINGS), ReferenceBusTracker(TIMINGS)
        adjust = _stalls(windows).adjust
        arrival = 0
        for step, offset in requests:
            arrival += step
            lower = arrival + offset
            assert new.reserve(arrival, lower, adjust) == \
                ref.reserve(arrival, lower, adjust)
            assert [(s, s + BURST) for s in new._slots] == \
                list(ref._slots)
        assert new.busy_time == ref.busy_time


class TestBusProperties:
    @given(st.lists(BUS_REQUEST, min_size=1, max_size=80))
    @settings(max_examples=100)
    def test_no_two_slots_overlap(self, requests):
        bus = ReferenceBusTracker(TIMINGS)
        slots = []
        arrival = 0
        for step, offset in requests:
            arrival += step
            _, start = bus.reserve(arrival, arrival + offset,
                                   lambda t: t)
            slots.append((start, start + BURST))
        slots.sort()
        for (s1, e1), (s2, e2) in zip(slots, slots[1:]):
            assert s2 >= e1

    @given(st.lists(BUS_REQUEST, min_size=1, max_size=80))
    @settings(max_examples=100)
    def test_start_never_before_request(self, requests):
        bus = ReferenceBusTracker(TIMINGS)
        arrival = 0
        for step, offset in requests:
            arrival += step
            cas, start = bus.reserve(arrival, arrival + offset,
                                     lambda t: t)
            assert start >= cas >= arrival + offset

    @given(st.lists(BUS_REQUEST, min_size=5, max_size=60))
    @settings(max_examples=50)
    def test_busy_time_conserved(self, requests):
        bus = ReferenceBusTracker(TIMINGS)
        arrival = 0
        for step, offset in requests:
            arrival += step
            bus.reserve(arrival, arrival + offset, lambda t: t)
        assert bus.busy_time == len(requests) * BURST


class TestFawProperties:
    @given(st.lists(st.integers(0, 300_000), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_no_five_acts_in_any_window_out_of_order(self, asks):
        """The invariant holds even for out-of-order placement asks."""
        faw = ReferenceFawTracker(TIMINGS)
        placed = []
        for ask in asks:  # deliberately NOT sorted
            t = faw.earliest_activate(ask)
            faw.activate(t, 0)
            placed.append(t)
        placed.sort()
        for i in range(len(placed) - 4):
            assert placed[i + 4] - placed[i] >= FAW

    @given(st.lists(st.integers(0, 300_000), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_placement_never_before_ask(self, asks):
        faw = ReferenceFawTracker(TIMINGS)
        for ask in asks:
            t = faw.earliest_activate(ask)
            assert t >= ask
            faw.activate(t, 0)

    @given(st.lists(st.integers(0, 100_000), min_size=4, max_size=40),
           st.integers(0, 100_000))
    @settings(max_examples=60)
    def test_pruning_at_booking_is_safe_for_later_queries(self, asks,
                                                         probe):
        """Forgetting bookings a tFAW before each arrival never admits
        an illegal placement afterwards."""
        faw = ReferenceFawTracker(TIMINGS)
        placed = []
        for ask in sorted(asks):
            t = faw.earliest_activate(ask)
            faw.activate(t, ask)
            placed.append(t)
        ask = max(placed) + probe
        t = faw.earliest_activate(ask)
        faw.activate(t, ask)
        placed.append(t)
        placed.sort()
        for i in range(len(placed) - 4):
            assert placed[i + 4] - placed[i] >= FAW
