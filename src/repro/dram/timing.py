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

from bisect import bisect_left, bisect_right
from typing import List

from repro.params import DramTimings


class BankTiming:
    """Earliest-issue-time bookkeeping for one bank.

    The memory controller's request path reads and writes these slots
    inline (:meth:`repro.mc.controller.MemoryController.serve_timing`):
    an ACT no sooner than tRC after the last ACT, tRP after the last
    PRE and the end of any blackout; a PRE no sooner than tRAS after
    the ACT.
    """

    __slots__ = ("timings", "_last_act", "_precharge_done",
                 "_blocked_until")

    def __init__(self, timings: DramTimings) -> None:
        self.timings = timings
        self._last_act: int = -(10 ** 18)
        self._precharge_done: int = 0
        self._blocked_until: int = 0

    def block_until(self, until: int) -> None:
        """Black out the bank (REF, RFM, ALERT stall) until ``until``."""
        if until > self._blocked_until:
            self._blocked_until = until

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
    fewer than four ACTs.  The controller's request path books each ACT
    into ``_times`` and answers the common ask inline with the same two
    bisects that open :meth:`earliest_activate`; it calls the method
    only when they cannot prove the ask legal.
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


class BusTracker:
    """Shared data bus: one tBURST slot per request, out-of-order slots.

    The data bus serves bursts in CAS-time order, not request-arrival
    order: a request whose CAS is delayed (bank conflict, REF) must not
    reserve the bus ahead of time and starve requests whose data is
    ready sooner.  Each burst is therefore booked into the earliest
    *gap* at or after its CAS.  Every slot is tBURST long, so the
    tracker keeps only the sorted slot starts; the controller's request
    path scans and books them inline.
    """

    __slots__ = ("timings", "_tBURST", "_slots", "busy_time")

    def __init__(self, timings: DramTimings) -> None:
        self.timings = timings
        self._tBURST = timings.tBURST
        self._slots: List[int] = []
        self.busy_time = 0

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` picoseconds the bus carried data."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
