"""The assembled simulated system: cores, controllers, devices.

``MultiCoreSystem.run`` drives a fixed simulated window: cores issue
misses in global time order through the two subchannel controllers, and
the result captures everything the paper's figures need -- per-core IPC,
activation counts, ALERT/RFM rates, and mitigation-energy accounting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, List, Optional

from repro.cpu.core import Core
from repro.cpu.trace import TraceEntry
from repro.dram.device import DramDevice, RiderDevice, Riders
from repro.dram.mapping import RowToSubarrayMapping
from repro.mc.controller import MemoryController
from repro.mitigations.base import BankTracker
from repro.obs import profile as _profile
from repro.params import SystemConfig


@dataclass
class SimResult:
    """Everything measured over one simulated window."""

    window_ps: int
    config: SystemConfig
    ipc: List[float] = field(default_factory=list)
    instructions: List[int] = field(default_factory=list)
    total_requests: int = 0
    total_activations: int = 0
    row_hit_rate: float = 0.0
    alerts: List[int] = field(default_factory=list)
    rfms: List[int] = field(default_factory=list)
    bus_utilization: float = 0.0
    mitigations: int = 0
    victim_rows_refreshed: int = 0
    demand_rows_refreshed: int = 0
    max_unmitigated_acts: int = 0
    metrics: Optional[dict] = None
    """Metrics snapshot collected over the run (None when disabled)."""
    trace_events: Optional[list] = None
    """Structured trace events from the run (None when disabled)."""
    spans: Optional[list] = None
    """Wall-clock execution spans from the run (None when disabled)."""
    tenants: Optional[List[Optional[str]]] = None
    """Per-core tenant names (None outside multi-tenant scenarios)."""
    unmitigated_by_bank: Optional[List[List[int]]] = None
    """Per-subchannel, per-bank worst unmitigated-ACT counts (escape
    exposure; ``max_unmitigated_acts`` is the max over this table)."""

    def weighted_speedup(self, baseline: "SimResult") -> float:
        """Sum of per-core IPC ratios against ``baseline`` (Section III)."""
        pairs = zip(self.ipc, baseline.ipc)
        return sum(s / b for s, b in pairs if b > 0)

    def normalized_performance(self, baseline: "SimResult") -> float:
        """Weighted speedup normalised to the core count (1.0 = parity)."""
        cores = sum(1 for b in baseline.ipc if b > 0)
        if cores == 0:
            return 1.0
        return self.weighted_speedup(baseline) / cores

    def slowdown_pct(self, baseline: "SimResult") -> float:
        """Percent slowdown vs the unprotected baseline."""
        return 100.0 * (1.0 - self.normalized_performance(baseline))

    def alerts_per_100_trefi(self) -> float:
        """ALERTs per 100 x tREFI per subchannel (Figure 11b's metric)."""
        trefi = self.config.timings.tREFI
        intervals = self.window_ps / trefi
        if intervals <= 0 or not self.alerts:
            return 0.0
        per_subchannel = sum(self.alerts) / len(self.alerts)
        return 100.0 * per_subchannel / intervals

    def refresh_power_overhead_pct(self) -> float:
        """Victim refreshes relative to demand refreshes, in percent."""
        if self.demand_rows_refreshed == 0:
            return 0.0
        return 100.0 * self.victim_rows_refreshed / \
            self.demand_rows_refreshed

    def tenant_names(self) -> List[str]:
        """Distinct tenant names, in first-core order."""
        names: List[str] = []
        for name in self.tenants or []:
            if name is not None and name not in names:
                names.append(name)
        return names

    def _tenant_cores(self, tenant: str) -> List[int]:
        return [i for i, name in enumerate(self.tenants or [])
                if name == tenant]

    def tenant_ipc(self) -> dict:
        """Mean per-core IPC of each tenant's cores."""
        out = {}
        for name in self.tenant_names():
            cores = self._tenant_cores(name)
            out[name] = sum(self.ipc[i] for i in cores) / len(cores)
        return out

    def tenant_slowdown_pct(self, baseline: "SimResult",
                            tenant: str) -> float:
        """Percent slowdown of one tenant's cores vs ``baseline``.

        The per-core IPC-ratio mean restricted to the tenant's cores
        (the victim-slowdown metric of the inter-VM sweep).  Core
        indices must line up: the baseline should be the same scenario
        shape run under a reference setup/pressure.
        """
        cores = [i for i in self._tenant_cores(tenant)
                 if baseline.ipc[i] > 0]
        if not cores:
            return 0.0
        ratio = sum(self.ipc[i] / baseline.ipc[i]
                    for i in cores) / len(cores)
        return 100.0 * (1.0 - ratio)

    def tenant_exposure(self, footprints: dict) -> dict:
        """Worst unmitigated-ACT count inside each tenant's footprint.

        ``footprints`` maps tenant name to ``(subchannel, bank)``
        pairs (see
        :func:`repro.workloads.tenants.scenario_footprints`); the
        escape exposure of a tenant is the worst oracle count over the
        banks it can reach.  Requires ``unmitigated_by_bank`` (any
        result collected at or after cache format 4).
        """
        table = self.unmitigated_by_bank or []
        out = {}
        for name, banks in footprints.items():
            out[name] = max((table[s][b] for s, b in banks
                             if s < len(table) and b < len(table[s])),
                            default=0)
        return out


TraceFactory = Callable[[int], Iterator[TraceEntry]]
TrackerFactoryForBank = Callable[[int, int], BankTracker]
MappingFactory = Callable[[], RowToSubarrayMapping]


class MultiCoreSystem:
    """Cores + two subchannel controllers + devices, run over a window.

    With ``riders``, every subchannel is a
    :class:`~repro.dram.device.RiderDevice` carrying them.
    """

    def __init__(self, config: SystemConfig,
                 trace_factory: TraceFactory,
                 tracker_factory: Optional[TrackerFactoryForBank] = None,
                 mapping_factory: Optional[MappingFactory] = None,
                 rfm_bat: Optional[int] = None,
                 refs_per_window: Optional[int] = None,
                 mlp: int = 8,
                 blast_radius: int = 2,
                 record_commands: bool = False,
                 drfm_factory=None,
                 tenants: Optional[List[Optional[str]]] = None,
                 riders: Optional[Riders] = None) -> None:
        self.config = config
        self.devices: List[DramDevice] = []
        self.mcs: List[MemoryController] = []
        self.command_logs = []
        for subch in range(config.geometry.subchannels):
            mapping = mapping_factory() if mapping_factory else None
            per_bank = None
            if tracker_factory is not None:
                per_bank = (lambda s: lambda bank_id: tracker_factory(
                    s, bank_id))(subch)
            if riders is None:
                device = DramDevice(config, per_bank, mapping,
                                    refs_per_window, blast_radius,
                                    subch=subch)
            else:
                device = RiderDevice(config, per_bank, mapping,
                                     refs_per_window, blast_radius,
                                     subch=subch, riders=riders)
            self.devices.append(device)
            log = None
            if record_commands:
                from repro.mc.validator import CommandLog
                log = CommandLog()
                self.command_logs.append(log)
            drfm = drfm_factory(subch) if drfm_factory else None
            self.mcs.append(MemoryController(config, device, rfm_bat,
                                             command_log=log,
                                             drfm=drfm, subch=subch))
        self._tenants = list(tenants) if tenants is not None else None
        if self._tenants is not None and \
                len(self._tenants) != config.num_cores:
            raise ValueError(
                f"tenants has {len(self._tenants)} labels for "
                f"{config.num_cores} cores")
        self.cores: List[Core] = [
            Core(i, trace_factory(i), mlp,
                 tenant=self._tenants[i] if self._tenants else None)
            for i in range(config.num_cores)]

    def run(self, window_ps: int) -> SimResult:
        """Simulate ``window_ps`` picoseconds; return the measurements."""
        prof = _profile._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        self.drive(window_ps)
        for mc in self.mcs:
            mc.finish(window_ps)
        if prof is not None:
            prof.add_run(perf_counter() - t0, window_ps,
                         sum(mc.total_requests for mc in self.mcs),
                         sum(mc.total_activations for mc in self.mcs))
        return self.collect(window_ps)

    def drive(self, window_ps: int) -> None:
        """Issue every in-window request (the heap loop of :meth:`run`).

        Kept apart from the ``finish``-and-:meth:`collect` tail so the
        request loop can be timed as its own layer
        (``reportbench/instrument.py`` does).  The loop keeps each
        core's commit, completion and next issue time inline on the
        core's slots; only a core whose trace chunk runs out goes
        through :meth:`Core.peek_issue_time`, which refills it.
        """
        prof = _profile._ACTIVE
        heapreplace = heapq.heapreplace
        cores = self.cores
        serves = [mc.serve_timing for mc in self.mcs]
        num_mcs = len(serves)
        serve_s = 0.0
        heap = []
        for core in cores:
            t = core.peek_issue_time()
            if t is not None:
                heap.append((t, core.core_id))
        heapq.heapify(heap)
        while heap:
            # A queued core's state never changes while it waits, so its
            # key is exact and is committed as it reaches the top.  Each
            # core holds one entry and keys carry the core id, so the
            # order never depends on the heap's layout.
            issue, core_id = heap[0]
            if issue >= window_ps:
                # A core's issue times never decrease, so every request
                # still queued is past the window too.
                break
            core = cores[core_id]
            # Commit: tup fields are (compute_ps, instructions,
            # subchannel, bank, row) -- see repro.cpu.trace.EntryTuple.
            buf = core._buf
            idx = core._idx
            tup = buf[idx]
            idx += 1
            core._idx = idx
            counter = core._m_stall_ps
            if counter is not None:
                # Time lost waiting on the MLP limit: issue beyond the
                # point the compute delay alone would have allowed.
                wait = issue - (core.clock + tup[0])
                if wait > 0:
                    counter.value += wait
            outstanding = core._outstanding
            mlp = core.mlp
            if len(outstanding) >= mlp:
                outstanding.popleft()
            core.clock = issue
            core.retired_instructions += tup[1]
            core.misses_issued += 1
            serve = serves[tup[2] % num_mcs]
            if prof is None:
                data_done = serve(tup[3], tup[4], issue)[1]
            else:
                s0 = perf_counter()
                data_done = serve(tup[3], tup[4], issue)[1]
                serve_s += perf_counter() - s0
            # Complete, then peek the core's next issue time.
            outstanding.append(data_done)
            hist = core._m_outstanding
            if hist is not None:
                hist.observe(len(outstanding))
            if idx < len(buf):
                nxt = issue + buf[idx][0]
                if len(outstanding) >= mlp and outstanding[0] > nxt:
                    nxt = outstanding[0]
            else:
                nxt = core.peek_issue_time()
                if nxt is None:
                    heapq.heappop(heap)
                    continue
            heapreplace(heap, (nxt, core_id))
        if prof is not None:
            prof.serve_s += serve_s

    def collect(self, window_ps: int) -> SimResult:
        """Assemble the :class:`SimResult` from the driven system."""
        result = SimResult(window_ps=window_ps, config=self.config)
        cycle = self.config.core_cycle_ps
        for core in self.cores:
            result.ipc.append(core.ipc(window_ps, cycle))
            result.instructions.append(core.retired_instructions)
        requests = sum(mc.total_requests for mc in self.mcs)
        hits = sum(mc.row_hits for mc in self.mcs)
        result.total_requests = requests
        result.total_activations = sum(
            mc.total_activations for mc in self.mcs)
        result.row_hit_rate = hits / requests if requests else 0.0
        result.alerts = [mc.alerts for mc in self.mcs]
        result.rfms = [mc.rfm.rfms_issued for mc in self.mcs]
        utils = [mc.bus.utilization(window_ps) for mc in self.mcs]
        result.bus_utilization = sum(utils) / len(utils) if utils else 0.0
        result.mitigations = sum(
            d.stats.mitigations_total for d in self.devices)
        result.victim_rows_refreshed = sum(
            d.stats.victim_rows_refreshed for d in self.devices)
        result.demand_rows_refreshed = sum(
            d.stats.demand_rows_refreshed for d in self.devices)
        result.max_unmitigated_acts = max(
            d.max_unmitigated_acts() for d in self.devices)
        result.unmitigated_by_bank = [
            [bank.oracle.max_unmitigated for bank in d.banks]
            for d in self.devices]
        if self._tenants is not None:
            result.tenants = list(self._tenants)
        return result
