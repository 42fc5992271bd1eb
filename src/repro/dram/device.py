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

A :class:`RiderDevice` is an unprotected subchannel that also carries
*riders*: the trackers of setups that reach the controller only through
ALERT, following its ACTs and REFs passively until one would act
(:class:`Riders`).  Riders whose MIRZA trackers differ only in queue
size share one tracker set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import (
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dram.bank import Bank, RowActivationOracle
from repro.dram.mapping import RowToSubarrayMapping, SequentialR2SA
from repro.dram.refresh import RefreshScheduler, RefreshSlice
from repro.mitigations.base import (
    BankTracker,
    MitigationSlotSource,
    can_alert,
)
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
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

    def refresh_cannibalization(self, costs: MitigationCosts,
                                tRFC: int) -> float:
        """Fraction of REF time consumed by REF-borrowed mitigations."""
        if self.refs_issued == 0:
            return 0.0
        under_ref = self.mitigations_by_source.get(
            MitigationSlotSource.REF.value, 0)
        return (under_ref * costs.mitigation_time) / (
            self.refs_issued * tRFC)


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
            i for i, t in enumerate(self.trackers) if can_alert(t))
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


class Riders:
    """The passive riders of one shared baseline pass, across subchannels.

    Riders follow the host in *tracker sets*.  Set ``s`` builds its
    per-bank trackers with ``factories[s](subch, bank)``, follows row
    mapping ``mappings[s]`` (``None`` when it is the host devices' own)
    and serves ``members[s]``: ``(rider, queue)`` pairs, ascending in
    ``queue``.  A rider *diverges* the first time its own tracker would
    want an ALERT or return rows for a REF slot: from then on its own
    run would differ from the host's in timing or mitigations, so it
    stops riding and ``diverged`` holds its index.  Until then its run
    is the host's, except for the ground-truth oracles, whose REF
    resets follow its mapping.

    A set of one rider has queue ``None``.  A *family* is a set of
    MIRZA riders whose trackers differ only in MIRZA-Q size
    (``queue``).  Its trackers are its smallest live member's own: a
    rider is only ever polled, so its queue never pops, and the poll
    that finds the queue full diverges the rider before any insert
    could be dropped.  Every larger member's tracker therefore holds
    the same state, and when the smallest member leaves, raising the
    set's queue size to the next member's makes them that member's
    own trackers.
    """

    __slots__ = ("factories", "mappings", "members", "diverged",
                 "devices", "_set_of")

    def __init__(self, factories: Sequence[Callable[[int, int],
                                                    BankTracker]],
                 mappings: Sequence[Optional[RowToSubarrayMapping]],
                 members: Sequence[Sequence[Tuple[int, Optional[int]]]]
                 ) -> None:
        self.factories = list(factories)
        self.mappings = list(mappings)
        self.members = [list(pairs) for pairs in members]
        self._set_of = {rider: s for s, pairs in enumerate(self.members)
                        for rider, _ in pairs}
        self.diverged: Set[int] = set()
        self.devices: List["RiderDevice"] = []

    def drop(self, s: int) -> None:
        """Set ``s`` acted at a REF slot: every member diverges."""
        self.diverged.update(rider for rider, _ in self.members[s])
        self.members[s] = []
        for device in self.devices:
            device.bind_riders()

    def alert(self, s: int, tracker: BankTracker) -> None:
        """``tracker`` of set ``s`` wants an ALERT: every live member
        whose own tracker would want one diverges."""
        members = self.members[s]
        while members and tracker.wants_alert():
            self.diverged.add(members.pop(0)[0])
            if members:
                queue = members[0][1]
                for device in self.devices:
                    for each in device.rider_trackers[s]:
                        each.queue.capacity = queue
        if not members:
            for device in self.devices:
                device.bind_riders()

    def unmitigated_by_bank(self, rider: int) -> List[List[int]]:
        """Per-subchannel, per-bank worst unmitigated-ACT counts under
        ``rider``'s mapping (its ``SimResult.unmitigated_by_bank``)."""
        s = self._set_of[rider]
        return [[oracle.max_unmitigated
                 for oracle in device.rider_oracles[s]]
                for device in self.devices]


class RiderDevice(DramDevice):
    """A subchannel that also drives :class:`Riders` on every ACT and REF.

    Each tracker set gets its own per-bank trackers here, and sets
    sharing a mapping other than the device's share one oracle set
    (sets on the device's mapping read its banks' oracles).  A
    subclass, so the plain :class:`DramDevice` ACT path gains no rider
    check.
    """

    def __init__(self, *args, riders: Riders, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.riders = riders
        banks = range(self.num_banks)
        geometry = self.config.geometry
        own = [bank.oracle for bank in self.banks]
        sets: dict = {}
        self.rider_oracles: List[List[RowActivationOracle]] = []
        """Per tracker set, the per-bank oracles its REF resets follow."""
        for mapping in riders.mappings:
            if mapping is None:
                self.rider_oracles.append(own)
                continue
            if id(mapping) not in sets:
                sets[id(mapping)] = (mapping, [
                    RowActivationOracle(geometry, mapping) for _ in banks])
            self.rider_oracles.append(sets[id(mapping)][1])
        self._oracle_sets: List[Tuple[RowToSubarrayMapping,
                                      List[RowActivationOracle]]] = \
            list(sets.values())
        self._act_oracles = [[oracles[b] for _, oracles in
                              self._oracle_sets] for b in banks]
        self.rider_trackers: List[List[BankTracker]] = [
            [factory(self.subch, b) for b in banks]
            for factory in riders.factories]
        riders.devices.append(self)
        self.bind_riders()

    def bind_riders(self) -> None:
        """Rebuild the per-bank hooks of the tracker sets still riding."""
        members = self.riders.members
        self._live = [s for s in range(len(self.rider_trackers))
                      if members[s]]
        self._act_hooks = [
            [(s, self.rider_trackers[s][b].on_activate,
              self.rider_trackers[s][b].wants_alert) for s in self._live]
            for b in range(self.num_banks)]

    def activate(self, bank_id: int, row: int, now_ps: int) -> None:
        DramDevice.activate(self, bank_id, row, now_ps)
        prof = _profile._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        for oracle in self._act_oracles[bank_id]:
            oracle.on_activate(row)
        for s, on_activate, wants_alert in self._act_hooks[bank_id]:
            on_activate(row, now_ps)
            if wants_alert():
                self.riders.alert(s, self.rider_trackers[s][bank_id])
        if prof is not None:
            prof.trackers_s += perf_counter() - t0

    def do_ref(self, now_ps: int) -> RefreshSlice:
        slice_ = DramDevice.do_ref(self, now_ps)
        # The same physical slice under each rider mapping: its oracle
        # and RCT resets see exactly what the rider's own run would.
        slices = {}
        for mapping, oracles in self._oracle_sets:
            slices[id(mapping)] = mapped = replace(slice_, mapping=mapping)
            for oracle in oracles:
                oracle.on_refresh(mapped)
        ref = MitigationSlotSource.REF
        riders = self.riders
        for s in self._live:
            mapping = riders.mappings[s]
            mapped = slice_ if mapping is None else slices[id(mapping)]
            for tracker in self.rider_trackers[s]:
                tracker.on_ref_slice(mapped, now_ps)
                if tracker.on_mitigation_slot(now_ps, ref):
                    riders.drop(s)
                    break
                if tracker.wants_alert():
                    riders.alert(s, tracker)
                    if not riders.members[s]:
                        break
        return slice_
