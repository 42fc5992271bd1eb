"""The assembled DRAM device: one subchannel of banks plus trackers.

A :class:`DramDevice` bundles the banks of one subchannel, their
per-bank mitigation trackers, and the demand-refresh sweep.  The memory
controller drives it with ``activate`` / ``do_ref`` / ``rfm`` /
``service_alert`` calls; the device performs the ground-truth
bookkeeping (row oracles, victim refreshes) and the mitigation-resource
accounting that the paper's energy and cannibalisation numbers are built
from.

ALERT is modelled at device (subchannel) scope, matching the paper's
"ALERTs per 100xtREFI (per sub-channel)" metric: when *any* bank's
tracker raises ``wants_alert``, the whole subchannel goes through the
ABO sequence and **every** bank with pending work mitigates one entry
(Section IV-A: queues synchronise mitigations across banks so one ALERT
serves many banks).

The device keeps that ALERT line incrementally.  A tracker's answer
changes only when the tracker itself is driven (see
:meth:`~repro.mitigations.base.BankTracker.wants_alert`), so the device
re-polls the touched bank after ``activate``, ``note_row_press`` and
``rfm``, and every alertable bank after ``do_ref`` and
``service_alert``; ``alert_pending`` is then a set read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, FrozenSet, List, Optional, Sequence, Set

from repro import _profile
from repro.dram.bank import Bank
from repro.dram.mapping import RowToSubarrayMapping, SequentialR2SA
from repro.dram.refresh import RefreshScheduler, RefreshSlice
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.params import MitigationCosts, SystemConfig

TrackerFactory = Callable[[int], BankTracker]


@dataclass
class DeviceStats:
    """Mitigation-resource accounting for one subchannel."""

    refs_issued: int = 0
    rfms_issued: int = 0
    alerts_serviced: int = 0
    demand_rows_refreshed: int = 0
    victim_rows_refreshed: int = 0
    mitigations_total: int = 0
    mitigations_by_source: dict = field(default_factory=dict)
    activations: int = 0
    row_press_equivalents: int = 0

    def record_mitigation(self, source: MitigationSlotSource,
                          victims: int) -> None:
        """Account one mitigation and its victim refreshes."""
        self.mitigations_total += 1
        self.victim_rows_refreshed += victims
        key = source.value
        self.mitigations_by_source[key] = (
            self.mitigations_by_source.get(key, 0) + 1)

    def refresh_power_overhead(self) -> float:
        """Victim refreshes relative to demand refreshes (Section II-F).

        The paper computes refresh power overhead as the ratio of rows
        undergoing victim refresh to rows undergoing demand refresh.
        """
        if self.demand_rows_refreshed == 0:
            return 0.0
        return self.victim_rows_refreshed / self.demand_rows_refreshed

    def refresh_cannibalization(self, costs: MitigationCosts,
                                tRFC: int) -> float:
        """Fraction of REF time consumed by REF-borrowed mitigations."""
        if self.refs_issued == 0:
            return 0.0
        under_ref = self.mitigations_by_source.get(
            MitigationSlotSource.REF.value, 0)
        return (under_ref * costs.mitigation_time) / (
            self.refs_issued * tRFC)

    def mitigation_rate(self) -> float:
        """Mitigations per activation (Table VIII's metric)."""
        if self.activations == 0:
            return 0.0
        return self.mitigations_total / self.activations


class DramDevice:
    """One subchannel: banks, trackers, refresh sweep, ALERT arbitration."""

    def __init__(self, config: SystemConfig,
                 tracker_factory: Optional[TrackerFactory] = None,
                 mapping: Optional[RowToSubarrayMapping] = None,
                 refs_per_window: Optional[int] = None,
                 blast_radius: int = 2, subch: int = 0) -> None:
        self.config = config
        geometry = config.geometry
        self.mapping = mapping if mapping is not None else SequentialR2SA(
            geometry)
        self.blast_radius = blast_radius
        self.subch = subch
        self.num_banks = geometry.banks_per_subchannel
        self.banks: List[Bank] = [
            Bank(i, geometry, self.mapping, subch)
            for i in range(self.num_banks)]
        if tracker_factory is None:
            from repro.mitigations.none import NoMitigation
            tracker_factory = lambda bank_id: NoMitigation()  # noqa: E731
        self.trackers: List[BankTracker] = [
            tracker_factory(i) for i in range(self.num_banks)]
        self.alertable_banks: FrozenSet[int] = frozenset(
            i for i, t in enumerate(self.trackers)
            if type(t).wants_alert is not BankTracker.wants_alert)
        """Banks whose tracker can ever request an ALERT (trackers that
        inherit the base ``wants_alert`` never do)."""
        self.alerting_banks: Set[int] = set()
        """Banks whose tracker requests an ALERT right now.  Updated in
        place, so a view bound to it stays live."""
        self._poll_all()
        self.refresh = RefreshScheduler(geometry, self.mapping,
                                        refs_per_window)
        self.stats = DeviceStats()
        reg = _metrics._ACTIVE
        if reg is not None:
            self._m_refs = reg.counter("dram.refs")
            self._m_alerts = reg.counter("dram.alerts_serviced")
            self._m_victims = reg.counter("dram.victim_rows")
            self._m_mitigations = {
                source: reg.counter(f"dram.mitigations.{source.value}")
                for source in MitigationSlotSource}
        else:
            self._m_refs = self._m_alerts = self._m_victims = None
            self._m_mitigations = None
        self._tr = _trace._ACTIVE

    # ------------------------------------------------------------------
    # Controller-facing operations
    # ------------------------------------------------------------------
    def activate(self, bank_id: int, row: int, now_ps: int) -> None:
        """Activate ``row`` in ``bank_id``; trackers observe the ACT."""
        self.banks[bank_id].activate(row)
        prof = _profile._ACTIVE
        if prof is None:
            self.trackers[bank_id].on_activate(row, now_ps)
        else:
            t0 = perf_counter()
            self.trackers[bank_id].on_activate(row, now_ps)
            prof.trackers_s += perf_counter() - t0
        self.stats.activations += 1
        if bank_id in self.alertable_banks:
            self._poll(bank_id)

    def apply_activations(self, bank_id: int, rows: Sequence[int],
                          times: Sequence[int]) -> None:
        """:meth:`activate` each ``(row, time)`` of a run, in order.

        Nothing in the kernel calls this; ``reportbench/instrument.py``
        wraps it by name.
        """
        for row, now_ps in zip(rows, times):
            self.activate(bank_id, row, now_ps)

    def drfm_mitigate(self, bank_id: int, aggressor_row: int) -> int:
        """Mitigate one MC-sampled aggressor (DRFM); return victim count.

        The controller's DRFM engine latches aggressors MC-side; the
        actual victim refresh is device work, routed through here.
        """
        victims = self.banks[bank_id].mitigate(aggressor_row,
                                               self.blast_radius)
        self.stats.record_mitigation(MitigationSlotSource.RFM, victims)
        return victims

    def note_row_press(self, bank_id: int, row: int,
                       equivalent_acts: int, now_ps: int) -> None:
        """Account extended row-open time as equivalent activations.

        RowPress (Section II-A) amplifies disturbance when a row stays
        open: a standard mitigation is to convert the open time into an
        equivalent number of activations and feed them to the tracker
        (IMPRESS / MOAT).  The ground-truth oracle counts them too, so
        the security tests cover the amplified threat.
        """
        if equivalent_acts <= 0:
            return
        bank = self.banks[bank_id]
        for _ in range(equivalent_acts):
            bank.oracle.on_activate(row)
            self.trackers[bank_id].on_activate(row, now_ps)
        self.stats.row_press_equivalents += equivalent_acts
        if bank_id in self.alertable_banks:
            self._poll(bank_id)

    def alert_pending(self) -> bool:
        """True if any bank's tracker needs an ALERT right now."""
        return bool(self.alerting_banks)

    def _poll(self, bank_id: int) -> None:
        """Re-read one alertable bank's ALERT request."""
        if self.trackers[bank_id].wants_alert():
            self.alerting_banks.add(bank_id)
        else:
            self.alerting_banks.discard(bank_id)

    def _poll_all(self) -> None:
        """Re-read every alertable bank (after REF or ALERT service)."""
        for bank_id in self.alertable_banks:
            self._poll(bank_id)

    def service_alert(self, now_ps: int, rfm_slots: int = None) -> int:
        """Run the mitigation phase of one ALERT; return rows mitigated.

        Every bank with queued work mitigates one aggressor per RFM
        issued -- this is what makes a single channel-wide ALERT
        efficient.  ``rfm_slots`` defaults to the configured
        ``abo.rfms_per_alert``.
        """
        if rfm_slots is None:
            rfm_slots = self.config.abo.rfms_per_alert
        self.stats.alerts_serviced += 1
        if self._m_alerts is not None:
            self._m_alerts.value += 1
        trace = self._tr
        total_victims = 0
        for _ in range(max(1, rfm_slots)):
            for bank, tracker in zip(self.banks, self.trackers):
                rows = tracker.on_mitigation_slot(
                    now_ps, MitigationSlotSource.ALERT)
                for row in rows:
                    victims = bank.mitigate(row, self.blast_radius)
                    self.stats.record_mitigation(
                        MitigationSlotSource.ALERT, victims)
                    total_victims += victims
                    self._note_mitigation(
                        MitigationSlotSource.ALERT, victims)
                    if trace is not None:
                        trace.instant(now_ps, "MITIGATE", self.subch,
                                      bank.bank_id)
        self._poll_all()
        return total_victims

    def do_ref(self, now_ps: int) -> RefreshSlice:
        """Issue one REF to all banks (same RefPtr slice on each)."""
        slice_ = self.refresh.advance()
        self.stats.refs_issued += 1
        if self._m_refs is not None:
            self._m_refs.value += 1
        trace = self._tr
        # A slice covers 16 * time_scale rows (the whole bank at scale
        # 8192); every reset below goes through RefreshSlice.reset_rows
        # or the RCT's closed form, so it costs O(live rows), and the
        # slice's logical rows are only built if some table outgrows it.
        swept = slice_.num_rows
        for bank, tracker in zip(self.banks, self.trackers):
            bank.refresh(slice_)
            tracker.on_ref_slice(slice_, now_ps)
            rows = tracker.on_mitigation_slot(
                now_ps, MitigationSlotSource.REF)
            for row in rows:
                victims = bank.mitigate(row, self.blast_radius)
                self.stats.record_mitigation(
                    MitigationSlotSource.REF, victims)
                self._note_mitigation(MitigationSlotSource.REF, victims)
                if trace is not None:
                    trace.instant(now_ps, "MITIGATE", self.subch,
                                  bank.bank_id)
            self.stats.demand_rows_refreshed += swept
        self._poll_all()
        return slice_

    def rfm(self, bank_id: int, now_ps: int) -> int:
        """Give ``bank_id``'s tracker an RFM slot; return rows mitigated."""
        self.stats.rfms_issued += 1
        bank = self.banks[bank_id]
        trace = self._tr
        rows = self.trackers[bank_id].on_mitigation_slot(
            now_ps, MitigationSlotSource.RFM)
        for row in rows:
            victims = bank.mitigate(row, self.blast_radius)
            self.stats.record_mitigation(MitigationSlotSource.RFM, victims)
            self._note_mitigation(MitigationSlotSource.RFM, victims)
            if trace is not None:
                trace.instant(now_ps, "MITIGATE", self.subch, bank_id)
        if bank_id in self.alertable_banks:
            self._poll(bank_id)
        return len(rows)

    def _note_mitigation(self, source: MitigationSlotSource,
                         victims: int) -> None:
        """Mirror one mitigation into the metrics registry, if any."""
        counters = self._m_mitigations
        if counters is not None:
            counters[source].value += 1
            self._m_victims.value += victims

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------
    def max_unmitigated_acts(self) -> int:
        """Worst unmitigated per-row ACT count across all banks (oracle)."""
        return max(b.oracle.max_unmitigated for b in self.banks)

    def attack_succeeded(self, threshold: int) -> bool:
        """Ground truth: did any row ever exceed ``threshold``?"""
        return any(b.oracle.attack_succeeded(threshold) for b in self.banks)
