"""Command-granularity DDR5 memory controller for one subchannel.

The controller is event-free in the small: each request's command
sequence (optional PRE, optional ACT, CAS + data burst) is scheduled
arithmetically against

- per-bank DDR5 timing state (tRC/tRAS/tRP/tRCD, REF blackouts),
- the rolling four-activate window (tFAW),
- the shared data bus (tBURST per request),
- channel-wide ALERT stall windows (ABO), and
- the demand-refresh schedule (one all-bank REF per tREFI).

A *soft close-page* policy is modelled: a row stays open for ``tRAS``
after its activation and closes automatically afterwards unless another
request to the same row arrives first (each hit extends the window).
This matches the paper's policy ("closes a row after tRAS unless there
are pending requests to the opened row") at request granularity.

The controller also hosts the proactive RFM engine (when configured)
and the reactive ABO engine; both interact with the per-bank trackers
through :class:`repro.dram.device.DramDevice`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from repro.dram.device import DramDevice
from repro.dram.timing import BankTiming, BusTracker, FawTracker
from repro.mc.abo import AboEngine
from repro.mc.drfm import DrfmEngine
from repro.mc.rfm import RfmEngine
from repro.mc.validator import CommandLog
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.params import SystemConfig

_LATENCY_BOUNDS_PS = (25_000, 50_000, 75_000, 100_000, 150_000,
                      250_000, 500_000, 1_000_000)
"""Upper bucket edges (ps) of the ``mc.latency_ps`` histogram."""


@dataclass(frozen=True, slots=True)
class RequestResult:
    """Outcome of one memory request."""

    issue_time: int
    """When the first command of the request issued (ps)."""

    completion_time: int
    """When the data burst finished (ps)."""

    activated: bool
    """True when the request required an ACT (row miss or conflict)."""

    row_hit: bool
    """True when the request hit the open row."""


class MemoryController:
    """FCFS-per-bank controller with open-page state and ABO/RFM."""

    __slots__ = ("config", "log", "rowpress_to_acts", "drfm", "timings",
                 "device", "banks", "faw", "bus", "abo", "rfm",
                 "_open_row", "_row_close_at", "_next_ref",
                 "total_requests", "total_activations", "row_hits",
                 "_tRCD", "_tRAS", "_tRP", "_tRC", "_tCAS", "_tBURST",
                 "_tREFI", "_tRFC", "_tFAW", "_faw_times", "_bus_slots",
                 "_stalls", "_rfm_enabled", "_alerting",
                 "subch", "_m_requests", "_m_row_hits",
                 "_m_row_conflicts", "_m_latency", "_tr")

    def __init__(self, config: SystemConfig, device: DramDevice,
                 rfm_bat: Optional[int] = None,
                 command_log: Optional[CommandLog] = None,
                 rowpress_to_acts: bool = False,
                 drfm: Optional[DrfmEngine] = None,
                 subch: int = 0) -> None:
        self.config = config
        self.log = command_log
        self.rowpress_to_acts = rowpress_to_acts
        self.drfm = drfm
        self.timings = config.timings
        self.device = device
        num_banks = device.num_banks
        self.banks: List[BankTiming] = [
            BankTiming(self.timings) for _ in range(num_banks)]
        self.faw = FawTracker(self.timings)
        self.bus = BusTracker(self.timings)
        self.abo = AboEngine(config.abo)
        self.rfm = RfmEngine(num_banks, rfm_bat, self.timings.tRFM)
        self._open_row: List[Optional[int]] = [None] * num_banks
        self._row_close_at: List[int] = [0] * num_banks
        self._next_ref = self.timings.tREFI
        self.total_requests = 0
        self.total_activations = 0
        self.row_hits = 0
        # Hot-path caches: the timing fields, the stall windows, the
        # tFAW bookings and bus slots (lists edited in place) and the
        # device's live ALERT set are read on every request; resolving
        # them once here keeps `serve_timing` free of attribute chains.
        self._tRCD = self.timings.tRCD
        self._tRAS = self.timings.tRAS
        self._tRP = self.timings.tRP
        self._tRC = self.timings.tRC
        self._tCAS = self.timings.tCAS
        self._tBURST = self.timings.tBURST
        self._tREFI = self.timings.tREFI
        self._tRFC = self.timings.tRFC
        self._tFAW = self.timings.tFAW
        self._faw_times = self.faw._times
        self._bus_slots = self.bus._slots
        self._stalls = self.abo.stalls
        self._rfm_enabled = rfm_bat is not None
        self._alerting = device.alerting_banks
        # Observability: metric objects and the trace buffer are bound
        # once here; the off path in serve_timing is one None check.
        self.subch = subch
        reg = _metrics._ACTIVE
        if reg is not None:
            self._m_requests = reg.counter("mc.requests")
            self._m_row_hits = reg.counter("mc.row_hits")
            self._m_row_conflicts = reg.counter("mc.row_conflicts")
            self._m_latency = reg.histogram("mc.latency_ps",
                                            bounds=_LATENCY_BOUNDS_PS)
        else:
            self._m_requests = self._m_row_hits = None
            self._m_row_conflicts = self._m_latency = None
        self._tr = _trace._ACTIVE

    # ------------------------------------------------------------------
    # Refresh pacing
    # ------------------------------------------------------------------
    def process_refreshes(self, until: int) -> None:
        """Issue every REF whose nominal slot is at or before ``until``."""
        if until < self._next_ref:
            return
        prof = _profile._ACTIVE
        if prof is not None:
            t0 = perf_counter()
        refs = 0
        adjust = self._stalls.adjust
        tRFC = self._tRFC
        tREFI = self._tREFI
        open_row = self._open_row
        trace = self._tr
        while self._next_ref <= until:
            start = adjust(self._next_ref)
            end = start + tRFC
            for bank_id, bank in enumerate(self.banks):
                bank.block_until(end)
                open_row[bank_id] = None
            if self.log is not None:
                self.log.record_ref(start, end)
            if trace is not None:
                trace.window(start, end, "REF", self.subch)
            self.device.do_ref(start)
            self._next_ref += tREFI
            refs += 1
        self._stalls.drop_before(until - 10 * tREFI)
        if prof is not None:
            prof.refresh_s += perf_counter() - t0
            prof.refs += refs

    # ------------------------------------------------------------------
    # Request service
    # ------------------------------------------------------------------
    def serve_timing(self, bank_id: int, row: int, arrival: int
                     ) -> Tuple[int, int, bool]:
        """Schedule one read-sized request: ``(issue, data_done,
        activated)``.

        The one request path, from the open-row check to the bus: the
        run loop calls it once per request, and :meth:`serve` wraps it.
        An ACT's only calls are the device's ACT hook and the ABO
        epilogue count: the bank's timing slots, the two-bisect tFAW
        check, the stall windows' no-stall fast path and the bus gap
        scan are read inline.  Rare work keeps its method: refresh, the
        tFAW neighbourhood loop, the stall-window walk, RowPress, RFM,
        DRFM and ALERT.
        """
        if self._next_ref <= arrival:
            self.process_refreshes(arrival)
        self.total_requests += 1
        bank = self.banks[bank_id]
        stalls = self._stalls
        open_rows = self._open_row
        open_row = open_rows[bank_id]
        close_at = self._row_close_at[bank_id]
        if open_row == row and arrival <= close_at:
            # Row hit.  Soft close-page policy: a row stays open tRAS
            # past its last use.
            issue = bank._blocked_until
            if issue < arrival:
                issue = arrival
            windows = stalls._windows
            if windows and issue < windows[-1][1]:
                issue = stalls.adjust(issue)
            self.row_hits += 1
            lower = issue
            activated = False
            counter = self._m_row_hits
            if counter is not None:
                counter.value += 1
        else:
            # Row miss: (PRE +) ACT.
            ready = arrival
            if open_row is not None:
                if arrival <= close_at:
                    # Conflict: PRE no sooner than tRAS after the ACT.
                    pre = bank._last_act + self._tRAS
                    if pre < arrival:
                        pre = arrival
                    if pre < bank._blocked_until:
                        pre = bank._blocked_until
                    windows = stalls._windows
                    if windows and pre < windows[-1][1]:
                        pre = stalls.adjust(pre)
                    ready = pre + self._tRP
                else:
                    # The row auto-closed at close_at; its PRE trails.
                    pre = close_at
                    if arrival < pre + self._tRP:
                        ready = pre + self._tRP
                if self.rowpress_to_acts:
                    self._note_row_press(bank_id, open_row, pre)
                bank._precharge_done = pre + self._tRP
                if self.log is not None:
                    self.log.record_precharge(pre, bank_id)
            # Fixpoint over the constraints: pushing the ACT later (bank
            # blackout, stall window) can land it inside an already-full
            # tFAW window or a not-yet-processed REF slot, so every
            # constraint -- including future refreshes up to the
            # candidate time -- is re-evaluated until none moves it.
            floor = bank._last_act + self._tRC
            if floor < bank._precharge_done:
                floor = bank._precharge_done
            faw = self._tFAW
            times = self._faw_times
            act = ready
            while True:
                if act >= self._next_ref:
                    self.process_refreshes(act)
                candidate = act if act > floor else floor
                if candidate < bank._blocked_until:
                    candidate = bank._blocked_until
                # Fewer than four bookings within tFAW either side: no
                # five-ACT window can hold ``act``.
                if bisect_left(times, act + faw) \
                        - bisect_right(times, act - faw) >= 4:
                    f = self.faw.earliest_activate(act)
                    if f > candidate:
                        candidate = f
                windows = stalls._windows
                if windows and candidate < windows[-1][1]:
                    candidate = stalls.adjust(candidate)
                if candidate == act:
                    break
                act = candidate
            bank._last_act = act
            # Bookings a tFAW or more before the arrival cannot share a
            # window with any later ask (the arrival clock is monotone).
            horizon = arrival - faw
            if times and times[0] <= horizon:
                del times[:bisect_right(times, horizon)]
            insort(times, act)
            if self.log is not None:
                self.log.record_act(act, bank_id)
            trace = self._tr
            if trace is not None:
                trace.instant(act, "ACT", self.subch, bank_id)
            open_rows[bank_id] = row
            self._row_close_at[bank_id] = act + self._tRAS
            self.total_activations += 1
            self.device.activate(bank_id, row, act)
            self.abo.on_activate()
            if self._rfm_enabled and self.rfm.on_activate(bank_id):
                self._issue_rfm(bank_id, act)
            if self.drfm is not None \
                    and self.drfm.on_activate(bank_id, row):
                self._issue_drfm(act)
            if self._alerting:
                self._check_alert(act)
            counter = self._m_row_conflicts
            if counter is not None and open_row is not None \
                    and arrival <= close_at:
                counter.value += 1
            issue = act
            lower = act + self._tRCD
            activated = True

        # Book the burst into the first bus gap at or after the arrival
        # (slots ending by then are forgotten first); the CAS issues at
        # the later of that gap and ``lower``, out of any stall window.
        # When it lands past the gap, the scan resumes from the slot it
        # stopped at: every slot before it ends at or before the gap.
        burst = self._tBURST
        slots = self._bus_slots
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
        cas = t if t > lower else lower
        windows = stalls._windows
        if windows and cas < windows[-1][1]:
            cas = stalls.adjust(cas)
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
        self.bus.busy_time += burst
        data_done = t + burst + self._tCAS
        counter = self._m_requests
        if counter is not None:
            counter.value += 1
            self._m_latency.observe(data_done - arrival)
        if self.log is not None:
            self.log.record_burst(t, t + burst)
        # A served request keeps its row open for another tRAS.
        close_at = cas + self._tRAS
        if close_at > self._row_close_at[bank_id]:
            self._row_close_at[bank_id] = close_at
        return issue, data_done, activated

    def serve(self, bank_id: int, row: int, arrival: int) -> RequestResult:
        """Schedule one read-sized request; returns its timing."""
        issue, data_done, activated = self.serve_timing(
            bank_id, row, arrival)
        return RequestResult(issue_time=issue, completion_time=data_done,
                             activated=activated,
                             row_hit=(not activated))

    def _note_row_press(self, bank_id: int, row: int,
                        pre_time: int) -> None:
        """Convert ``row``'s extended open time into equivalent ACTs.

        RowPress mitigation (Section II-A): a row held open for ``n``
        tRAS periods disturbs its neighbours like ~``n`` activations;
        with ``rowpress_to_acts`` enabled, the request path calls this
        at each PRE, and the excess over the first period is reported
        to the tracker (and the oracle) as equivalent activations,
        capped to bound the bookkeeping.
        """
        open_time = pre_time - self.banks[bank_id].last_activate
        equivalent = min(16, open_time // self.timings.tRAS - 1)
        if equivalent > 0:
            self.device.note_row_press(bank_id, row, equivalent,
                                       pre_time)

    def _issue_rfm(self, bank_id: int, act_time: int) -> None:
        """Stall ``bank_id`` for an RFM right after the triggering ACT."""
        start = self.abo.stalls.adjust(act_time + self.timings.tRAS)
        end = start + self.rfm.rfm_duration
        self.banks[bank_id].block_until(end)
        self._open_row[bank_id] = None
        if self.log is not None:
            self.log.record_rfm(start, end, bank_id)
        trace = self._tr
        if trace is not None:
            trace.window(start, end, "RFM", self.subch, bank_id)
        self.device.rfm(bank_id, start)

    def _issue_drfm(self, act_time: int) -> None:
        """Release the DRFM batch: every sampled bank mitigates its
        latched aggressor under a single tRFM-length stall.

        The stall starts tRAS after the latest ACT already booked on
        any served bank (or on the triggering one), so no booked ACT
        lands inside its blackout."""
        served = self.drfm.issue_drfm()
        latest = act_time
        for bank_id, _ in served:
            last_act = self.banks[bank_id]._last_act
            if last_act > latest:
                latest = last_act
        start = self.abo.stalls.adjust(latest + self.timings.tRAS)
        end = start + self.timings.tRFM
        trace = self._tr
        if trace is not None:
            trace.window(start, end, "DRFM", self.subch)
        for bank_id, aggressor in served:
            self.banks[bank_id].block_until(end)
            self._open_row[bank_id] = None
            if self.log is not None:
                self.log.record_rfm(start, end, bank_id)
            self.device.drfm_mitigate(bank_id, aggressor)

    def _check_alert(self, now: int) -> None:
        """Run the ABO sequence if any tracker is requesting ALERT."""
        asserted = self.abo.maybe_assert(self.device.alert_pending(), now)
        if asserted is None:
            return
        stall_start, stall_end = asserted
        if self.log is not None:
            self.log.record_stall(stall_start, stall_end)
        trace = self._tr
        if trace is not None:
            trace.instant(now, "ALERT", self.subch)
            trace.window(stall_start, stall_end, "STALL", self.subch)
        self.device.service_alert(stall_end)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def finish(self, end_time: int) -> None:
        """Flush refreshes to the end of the simulated window."""
        self.process_refreshes(end_time)

    @property
    def row_hit_rate(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.row_hits / self.total_requests

    @property
    def alerts(self) -> int:
        return self.abo.alerts_asserted
