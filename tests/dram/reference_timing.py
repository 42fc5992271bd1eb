"""Reference tFAW and bus trackers: the per-request sequences they replace.

``ScanFawTracker`` keeps the neighbourhood loop on every
``earliest_activate`` call and prunes with ``release_before(arrival)``
at the start of every request.  ``ScanBusTracker`` keeps the slot
deque and the controller's old bus sequence: ``release_before``, one
``earliest_transfer`` scan from the arrival, a second one from the CAS
when the CAS lands anywhere but the gap the first scan found, then
``book``.  ``tests/dram/test_timing_properties.py`` drives these and
the tFAW and bus bookings of ``tests/mc/reference_controller.py``
(which the controller's request path is held to) with the same inputs
and requires equal answers and equal bookings after every step.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Deque, List, Tuple

from repro.params import DramTimings


class ScanFawTracker:
    """Sorted ACT times; every query walks the insertion neighbourhood."""

    def __init__(self, timings: DramTimings) -> None:
        self._tFAW = timings.tFAW
        self._times: List[int] = []

    def release_before(self, t: int) -> None:
        """Forget ACTs that predate ``t - tFAW``."""
        times = self._times
        if times and times[0] < t - self._tFAW:
            idx = bisect.bisect_left(times, t - self._tFAW)
            if idx:
                del times[:idx]

    def earliest_activate(self, now: int) -> int:
        """Slide ``now`` past every five-ACT window narrower than tFAW."""
        faw = self._tFAW
        times = self._times
        if not times:
            return now
        t = now
        while True:
            i = bisect.bisect_right(times, t)
            lo = max(0, i - 4)
            neighborhood = times[lo:i] + [t] + times[i:i + 4]
            t_index = i - lo
            moved = False
            for j in range(len(neighborhood) - 4):
                if not j <= t_index <= j + 4:
                    continue
                span = neighborhood[j + 4] - neighborhood[j]
                if span < faw:
                    t = neighborhood[j] + faw
                    moved = True
                    break
            if not moved:
                return t

    def activate(self, at: int) -> None:
        bisect.insort(self._times, at)


class ScanBusTracker:
    """``(start, end)`` slots in a deque, searched from scratch per ask."""

    def __init__(self, timings: DramTimings) -> None:
        self._tBURST = timings.tBURST
        self._slots: Deque[Tuple[int, int]] = deque()
        self.busy_time = 0

    def release_before(self, t: int) -> None:
        slots = self._slots
        while slots and slots[0][1] <= t:
            slots.popleft()

    def earliest_transfer(self, now: int) -> int:
        burst = self._tBURST
        t = now
        for start, end in self._slots:
            if t + burst <= start:
                return t
            if t < end:
                t = end
        return t

    def book(self, start: int) -> int:
        burst = self._tBURST
        end = start + burst
        slots = self._slots
        if slots and slots[-1][0] > start:
            bisect.insort(slots, (start, end))
        else:
            slots.append((start, end))
        self.busy_time += burst
        return end

    def reserve(self, arrival: int, lower: int,
                adjust: Callable[[int], int]) -> Tuple[int, int]:
        """The controller's old bus sequence for one request."""
        self.release_before(arrival)
        transfer = self.earliest_transfer(arrival)
        cas = adjust(transfer if transfer > lower else lower)
        start = transfer if cas == transfer \
            else self.earliest_transfer(cas)
        self.book(start)
        return cas, start
