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

from bisect import bisect_left, bisect_right, insort
from typing import Callable, List, Tuple

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

    def earliest_activate(self, now: int) -> int:
        """Earliest time >= ``now`` the subchannel can accept an ACT.

        A window of five ACTs that violates tFAW and holds ``now`` spans
        less than tFAW, so its other four bookings lie strictly inside
        ``(now - tFAW, now + tFAW)``: with fewer than four there, two
        bisects prove ``now`` legal.  Otherwise -- bookings are out of
        call order, so inserting at ``t`` must not create five ACTs
        inside *any* tFAW window, including windows anchored on bookings
        later than ``t`` -- the check scans every five-element window of
        the sorted neighbourhood around the insertion point and slides
        ``t`` past the first violation.
        """
        faw = self._tFAW
        times = self._times
        if bisect_left(times, now + faw) - bisect_right(times, now - faw) \
                < 4:
            return now
        t = now
        while True:
            i = bisect_right(times, t)
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

    def activate(self, at: int, arrival: int) -> None:
        """Book an ACT at ``at`` for a request that arrived at ``arrival``.

        Bookings at or before ``arrival - tFAW`` are forgotten first.
        Later queries ask at or after their own request's arrival, which
        the controller's arrival clock keeps at or after ``arrival``, and
        a booking tFAW or more before the asked time cannot share a
        window with it.
        """
        times = self._times
        horizon = arrival - self._tFAW
        if times and times[0] <= horizon:
            del times[:bisect_right(times, horizon)]
        insort(times, at)


class BusTracker:
    """Shared data bus: one tBURST slot per request, out-of-order slots.

    The data bus serves bursts in CAS-time order, not request-arrival
    order: a request whose CAS is delayed (bank conflict, REF) must not
    reserve the bus ahead of time and starve requests whose data is
    ready sooner.  Each burst is therefore booked into the earliest
    *gap* at or after its CAS.  Every slot is tBURST long, so the
    tracker keeps only the sorted slot starts.
    """

    __slots__ = ("timings", "_tBURST", "_slots", "busy_time")

    def __init__(self, timings: DramTimings) -> None:
        self.timings = timings
        self._tBURST = timings.tBURST
        self._slots: List[int] = []
        self.busy_time = 0

    def reserve(self, arrival: int, lower: int,
                adjust: Callable[[int], int]) -> Tuple[int, int]:
        """Issue one request's CAS and book its burst: ``(cas, start)``.

        ``lower`` is the earliest CAS the bank allows, and ``adjust``
        slides a time out of the channel's stall windows.  Slots that
        end at or before ``arrival`` are forgotten first (the controller
        passes its monotone request-arrival clock).  One scan from
        ``arrival`` finds the first free gap; the CAS issues at
        ``adjust(max(gap, lower))``.  When that lands past the gap, the
        same scan resumes from the slot it stopped at: every slot before
        it ends at or before the gap, so a scan from the CAS would skip
        them.  The burst is booked at the first gap at or after the CAS.
        """
        burst = self._tBURST
        slots = self._slots
        if slots and slots[0] <= arrival - burst:
            del slots[:bisect_right(slots, arrival - burst)]
        n = len(slots)
        i = 0
        t = arrival
        while i < n:
            start = slots[i]
            if t + burst <= start:
                break
            if t < start + burst:
                t = start + burst
            i += 1
        cas = adjust(t if t > lower else lower)
        if cas != t:
            t = cas
            while i < n:
                start = slots[i]
                if t + burst <= start:
                    break
                if t < start + burst:
                    t = start + burst
                i += 1
        slots.insert(i, t)
        self.busy_time += burst
        return cas, t

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` picoseconds the bus carried data."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
