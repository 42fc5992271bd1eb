"""The request path as methods, kept as the reference for the inlined one.

``MemoryController.serve_timing`` schedules a request in one tight
loop: it reads the bank timing slots, the two-bisect tFAW check, the
stall windows' no-stall fast path and the bus gap scan inline, and
``MultiCoreSystem.drive`` keeps each core's commit, completion and next
issue time on the core's slots.  This module holds the request path
those loops replaced, method for method: ``serve_timing`` with its
``_activate`` and ``_note_row_press``, the per-bank, tFAW and bus
tracker methods they called, ``drive``, and the core methods it
called.  ``tests/mc/test_request_loop.py`` drives both paths with the
same requests and requires equal answers and equal state after every
step; the timing and core unit tests pin these methods' rules.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from time import perf_counter
from typing import Callable, Tuple

from repro.cpu.core import Core
from repro.cpu.system import MultiCoreSystem
from repro.cpu.trace import EntryTuple, TraceEntry
from repro.dram.timing import BankTiming, BusTracker, FawTracker
from repro.mc.controller import MemoryController
from repro.obs import profile as _profile
from repro.params import DramTimings


class ReferenceBankTiming(BankTiming):
    """Bank timing with its own earliest-issue and booking methods."""

    __slots__ = ("_tRC", "_tRAS", "_tRP", "_row_open")

    def __init__(self, timings: DramTimings) -> None:
        super().__init__(timings)
        self._tRC = timings.tRC
        self._tRAS = timings.tRAS
        self._tRP = timings.tRP
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


class ReferenceFawTracker(FawTracker):
    """The tFAW tracker with its booking method."""

    __slots__ = ()

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


class ReferenceBusTracker(BusTracker):
    """The bus tracker with its reserve-and-book method."""

    __slots__ = ()

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


class ReferenceController(MemoryController):
    """The controller's request path as two methods over the reference
    trackers, built like :class:`MemoryController`."""

    __slots__ = ("_alert_possible",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.banks = [ReferenceBankTiming(self.timings)
                      for _ in range(self.device.num_banks)]
        self.faw = ReferenceFawTracker(self.timings)
        self.bus = ReferenceBusTracker(self.timings)
        self._alert_possible = bool(self.device.alertable_banks)

    def serve_timing(self, bank_id: int, row: int, arrival: int
                     ) -> Tuple[int, int, bool]:
        """Hot path of :meth:`serve`: ``(issue, data_done, activated)``.

        Identical scheduling to :meth:`serve` without constructing a
        :class:`RequestResult`; the run loop calls this once per request.
        """
        if self._next_ref <= arrival:
            self.process_refreshes(arrival)
        self.total_requests += 1
        bank = self.banks[bank_id]
        # Soft close-page policy: the row auto-closed tRAS after its last
        # use (the precharge residue is paid in _activate).
        open_row = self._open_row[bank_id]
        if open_row is not None and arrival > self._row_close_at[bank_id]:
            open_row = None

        adjust = self._stalls.adjust
        if open_row == row:
            blocked = bank._blocked_until
            issue = adjust(blocked if blocked > arrival else arrival)
            self.row_hits += 1
            lower = issue
            activated = False
            counter = self._m_row_hits
            if counter is not None:
                counter.value += 1
        else:
            conflict = open_row is not None
            issue = self._activate(bank_id, row, arrival,
                                   conflict=conflict)
            lower = issue + self._tRCD
            activated = True
            if conflict and self._m_row_conflicts is not None:
                self._m_row_conflicts.value += 1

        cas, start = self.bus.reserve(arrival, lower, adjust)
        data_done = start + self._tBURST + self._tCAS
        counter = self._m_requests
        if counter is not None:
            counter.value += 1
            self._m_latency.observe(data_done - arrival)
        if self.log is not None:
            self.log.record_burst(start, start + self._tBURST)
        # A served request keeps its row open for another tRAS.
        close_at = cas + self._tRAS
        if close_at > self._row_close_at[bank_id]:
            self._row_close_at[bank_id] = close_at
        return issue, data_done, activated

    def _activate(self, bank_id: int, row: int, arrival: int,
                  conflict: bool) -> int:
        """Issue (PRE +) ACT for ``row``; return the ACT issue time."""
        bank = self.banks[bank_id]
        adjust = self._stalls.adjust
        ready = arrival
        if conflict:
            pre = adjust(bank.earliest_precharge(arrival))
            self._note_row_press(bank_id, pre)
            ready = bank.precharge(pre)
            if self.log is not None:
                self.log.record_precharge(pre, bank_id)
        elif self._open_row[bank_id] is not None:
            # Row auto-closed at row_close_at; precharge trails it.
            auto_pre = self._row_close_at[bank_id]
            self._note_row_press(bank_id, auto_pre)
            ready = max(arrival, auto_pre + self._tRP)
            bank.precharge(auto_pre)
            if self.log is not None:
                self.log.record_precharge(auto_pre, bank_id)
        # Fixpoint over the constraints: pushing the ACT later (bank
        # blackout, stall window) can land it inside an already-full
        # tFAW window or a not-yet-processed REF slot, so every
        # constraint -- including future refreshes up to the candidate
        # time -- is re-evaluated until none moves it.
        bank_earliest = bank.earliest_activate
        faw_earliest = self.faw.earliest_activate
        act = ready
        while True:
            if act >= self._next_ref:
                self.process_refreshes(act)
            b = bank_earliest(act)
            f = faw_earliest(act)
            candidate = adjust(b if b > f else f)
            if candidate == act:
                break
            act = candidate
        bank.activate(act)
        self.faw.activate(act, arrival)
        if self.log is not None:
            self.log.record_act(act, bank_id)
        trace = self._tr
        if trace is not None:
            trace.instant(act, "ACT", self.subch, bank_id)
        self._open_row[bank_id] = row
        self._row_close_at[bank_id] = act + self._tRAS
        self.total_activations += 1
        self.device.activate(bank_id, row, act)
        self.abo.on_activate()
        if self._rfm_enabled and self.rfm.on_activate(bank_id):
            self._issue_rfm(bank_id, act)
        if self.drfm is not None and self.drfm.on_activate(bank_id, row):
            self._issue_drfm(act)
        if self._alert_possible:
            self._check_alert(act)
        return act

    def _note_row_press(self, bank_id: int, pre_time: int) -> None:
        """Convert extended row-open time into equivalent ACTs.

        RowPress mitigation (Section II-A): a row held open for ``n``
        tRAS periods disturbs its neighbours like ~``n`` activations;
        with ``rowpress_to_acts`` enabled, the excess over the first
        period is reported to the tracker (and the oracle) as
        equivalent activations, capped to bound the bookkeeping.
        """
        if not self.rowpress_to_acts:
            return
        row = self._open_row[bank_id]
        if row is None:
            return
        open_time = pre_time - self.banks[bank_id].last_activate
        equivalent = min(16, open_time // self.timings.tRAS - 1)
        if equivalent > 0:
            self.device.note_row_press(bank_id, row, equivalent,
                                       pre_time)


class ReferenceCore(Core):
    """A core with its own commit, completion and pop methods."""

    __slots__ = ()

    def pop_tuple(self) -> Tuple[int, EntryTuple]:
        """Commit to the next miss; returns ``(issue_time, entry_tuple)``.

        The entry comes back as a plain
        :data:`repro.cpu.trace.EntryTuple`.
        """
        issue = self.peek_issue_time()
        if issue is None:
            raise StopIteration("trace exhausted")
        return issue, self.commit(issue)

    def commit(self, issue: int) -> EntryTuple:
        """Issue the next miss at ``issue``; return its entry tuple.

        The run loop's hot path: ``issue`` must be what
        :meth:`peek_issue_time` returned with no call to this core in
        between, so the peek need not run again.
        """
        tup = self._buf[self._idx]
        self._idx += 1
        counter = self._m_stall_ps
        if counter is not None:
            # Time lost waiting on the MLP limit: issue beyond the point
            # the compute delay alone would have allowed.
            wait = issue - (self.clock + tup[0])
            if wait > 0:
                counter.value += wait
        outstanding = self._outstanding
        if len(outstanding) >= self.mlp:
            outstanding.popleft()
        self.clock = issue
        self.retired_instructions += tup[1]
        self.misses_issued += 1
        return tup

    def pop_request(self) -> Tuple[int, TraceEntry]:
        """Commit to issuing the next miss; returns (issue_time, entry)."""
        issue, tup = self.pop_tuple()
        return issue, TraceEntry(*tup)

    def complete(self, completion_time: int) -> None:
        """Record the DRAM completion of the just-issued miss."""
        self._outstanding.append(completion_time)
        hist = self._m_outstanding
        if hist is not None:
            hist.observe(len(self._outstanding))


class ReferenceSystem(MultiCoreSystem):
    """A system whose request loop calls the core methods; its cores are
    :class:`ReferenceCore`\\ s."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for core in self.cores:
            core.__class__ = ReferenceCore

    def drive(self, window_ps: int) -> None:
        """Issue every in-window request (the heap loop of :meth:`run`).

        Kept apart from the ``finish``-and-:meth:`collect` tail so the
        request loop can be timed as its own layer
        (``reportbench/instrument.py`` does).
        """
        prof = _profile._ACTIVE
        heappush = heapq.heappush
        heappop = heapq.heappop
        cores = self.cores
        mcs = self.mcs
        num_mcs = len(mcs)
        serve_s = 0.0
        heap = []
        for core in cores:
            t = core.peek_issue_time()
            if t is not None:
                heappush(heap, (t, core.core_id))
        while heap:
            # A queued core's state never changes while it waits, so its
            # key is exact and is committed as popped.
            issue, core_id = heappop(heap)
            if issue >= window_ps:
                # A core's issue times never decrease, so every request
                # still queued is past the window too.
                break
            core = cores[core_id]
            # tup fields: (compute_ps, instructions, subchannel, bank,
            # row) -- see repro.cpu.trace.EntryTuple.
            tup = core.commit(issue)
            mc = mcs[tup[2] % num_mcs]
            if prof is None:
                data_done = mc.serve_timing(tup[3], tup[4], issue)[1]
            else:
                s0 = perf_counter()
                data_done = mc.serve_timing(tup[3], tup[4], issue)[1]
                serve_s += perf_counter() - s0
            core.complete(data_done)
            nxt = core.peek_issue_time()
            if nxt is not None:
                heappush(heap, (nxt, core_id))
        if prof is not None:
            prof.serve_s += serve_s
