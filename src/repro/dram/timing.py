"""Bank- and channel-level DDR5 timing constraint tracking.

The simulator is event-driven at command granularity: instead of ticking
a clock, each structure records the earliest picosecond at which the next
command of each kind may legally issue, and the memory controller takes
``max()`` over the applicable constraints.  This models exactly the
timing parameters the paper's results hinge on (tRP/tRC inflation under
PRAC, tFAW channel throughput, REF/RFM/ALERT blackouts) at a tiny
fraction of the cost of a cycle-accurate model.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, List

from repro.params import DramTimings


class BankTiming:
    """Earliest-issue-time bookkeeping for one bank."""

    __slots__ = ("timings", "_tRC", "_tRAS", "_tRP", "_last_act",
                 "_precharge_done", "_blocked_until", "_row_open")

    def __init__(self, timings: DramTimings) -> None:
        self.timings = timings
        self._tRC = timings.tRC
        self._tRAS = timings.tRAS
        self._tRP = timings.tRP
        self._last_act: int = -(10 ** 18)
        self._precharge_done: int = 0
        self._blocked_until: int = 0
        self._row_open: bool = False

    @property
    def row_open(self) -> bool:
        return self._row_open

    def earliest_activate(self, now: int) -> int:
        """Earliest time an ACT may issue (assumes row already closed)."""
        return max(now, self._last_act + self._tRC,
                   self._precharge_done, self._blocked_until)

    def earliest_precharge(self, now: int) -> int:
        """Earliest time a PRE may issue (tRAS after the ACT)."""
        return max(now, self._last_act + self._tRAS,
                   self._blocked_until)

    def activate(self, at: int) -> None:
        """Record an ACT at time ``at``."""
        self._last_act = at
        self._row_open = True

    def precharge(self, at: int) -> int:
        """Record a PRE at time ``at``; return its completion time."""
        self._row_open = False
        self._precharge_done = at + self._tRP
        return self._precharge_done

    def block_until(self, until: int) -> None:
        """Black out the bank (REF, RFM, ALERT stall) until ``until``."""
        if until > self._blocked_until:
            self._blocked_until = until
        self._row_open = False

    @property
    def blocked_until(self) -> int:
        return self._blocked_until

    @property
    def last_activate(self) -> int:
        return self._last_act


class FawTracker:
    """Rolling four-activate-window (tFAW) constraint for a subchannel.

    ACT bookings are kept in *time* order, not call order: an ACT that
    issues far in the future (its bank was blocked by REF/RFM) must not
    reserve the rolling window against ACTs to other banks that can
    legally issue sooner.  ``earliest_activate`` finds the first instant
    at or after the requested time whose trailing tFAW window holds
    fewer than four ACTs.
    """

    __slots__ = ("timings", "_tFAW", "_times")

    def __init__(self, timings: DramTimings) -> None:
        self.timings = timings
        self._tFAW = timings.tFAW
        self._times: List[int] = []

    def release_before(self, t: int) -> None:
        """Forget ACTs that predate every possible future window.

        Safe with any lower bound on future query times (the controller
        passes the monotone request-arrival clock).
        """
        times = self._times
        if times and times[0] < t - self._tFAW:
            idx = bisect.bisect_left(times, t - self._tFAW)
            if idx:
                del times[:idx]

    def earliest_activate(self, now: int) -> int:
        """Earliest time >= ``now`` the subchannel can accept an ACT.

        Bookings are out of call order, so inserting at ``t`` must not
        create five ACTs inside *any* tFAW window -- including windows
        anchored on bookings later than ``t``.  The check scans every
        five-element window of the sorted neighbourhood around the
        insertion point and slides ``t`` past the first violation.
        """
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
                    # Slide past the window's first booking.
                    t = neighborhood[j] + faw
                    moved = True
                    break
            if not moved:
                return t

    def activate(self, at: int) -> None:
        """Book an ACT at time ``at`` (kept in sorted order)."""
        bisect.insort(self._times, at)


class BusTracker:
    """Shared data bus: one tBURST slot per request, out-of-order slots.

    The data bus serves bursts in CAS-time order, not request-arrival
    order: a request whose CAS is delayed (bank conflict, REF) must not
    reserve the bus ahead of time and starve requests whose data is
    ready sooner.  Slots are therefore booked into the earliest *gap*
    at or after the desired time, with old gaps pruned as time advances.
    """

    __slots__ = ("timings", "_tBURST", "_slots", "busy_time")

    def __init__(self, timings: DramTimings) -> None:
        self.timings = timings
        self._tBURST = timings.tBURST
        self._slots: Deque[tuple] = deque()
        self.busy_time = 0

    def release_before(self, t: int) -> None:
        """Forget slots that end before ``t``.

        Safe to call with any lower bound on all *future* desired
        transfer times (the controller uses the monotone request-arrival
        clock); keeps the slot list short at high utilisation.
        """
        slots = self._slots
        while slots and slots[0][1] <= t:
            slots.popleft()

    def earliest_transfer(self, now: int) -> int:
        """Earliest start >= ``now`` with a free tBURST-sized gap."""
        burst = self._tBURST
        t = now
        for start, end in self._slots:
            if t + burst <= start:
                return t
            if t < end:
                t = end
        return t

    def transfer(self, at: int) -> int:
        """Book the first free slot at/after ``at``; return its end."""
        return self.book(self.earliest_transfer(at))

    def book(self, start: int) -> int:
        """Book the slot at ``start``, a free gap's start; return its end.

        ``start`` must be an :meth:`earliest_transfer` result with no
        booking since, which lets a caller that already searched skip
        the second scan :meth:`transfer` would make.
        """
        burst = self._tBURST
        end = start + burst
        slots = self._slots
        if slots and slots[-1][0] > start:
            bisect.insort(slots, (start, end))
        else:
            slots.append((start, end))
        self.busy_time += burst
        return end

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` picoseconds the bus carried data."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
