"""Builds and runs (workload x mitigation) simulations.

Every experiment module ultimately goes through :func:`simulate`: it
wires a :class:`repro.cpu.system.MultiCoreSystem` for the requested
mitigation setup, drives one scaled refresh window, and returns the
:class:`repro.cpu.system.SimResult`, uncached.
:func:`simulate_shared` runs the baseline's window once for many
ALERT-only setups at a time.  Callers wrap a run in
a :class:`repro.sim.session.SimJob` and submit it to a
:class:`repro.sim.session.SimSession` (``run``, ``run_many`` or
``slowdowns``), which memoises results by a content hash of (workload,
setup, scale, seed, config) and can fan independent runs out over
worker processes.

Mitigation setups mirror the paper's configurations:

- ``baseline_setup``    -- unprotected, normal DDR5 timings.
- ``prac_setup``        -- PRAC+ABO (MOAT): per-row counters *and* the
  inflated PRAC timings of Table I.
- ``mint_rfm_setup``    -- proactive MINT with RFM every W activations
  (W = 24/48/96 for TRHD 500/1000/2000, Figure 3).
- ``naive_mirza_setup`` -- MINT+ABO with a MIRZA-Q but no filtering
  (Table V).
- ``mist_setup``        -- MC-side DRFM sampling (Section X extension).
- ``mirza_setup``       -- the full mechanism with strided
  row-to-subarray mapping (Figure 11).

The tracker/DRFM factories inside a setup are small frozen dataclasses
rather than closures, so a :class:`MitigationSetup` is both *picklable*
(it can cross a process-pool boundary) and *hashable by content* (the
session can cache its results).  A setup built around a hand-rolled
closure still works -- it just runs in-process and uncached.
"""

from __future__ import annotations

import functools
import os
import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs as _obs
from repro.core.config import MirzaConfig
from repro.obs import profile as _profile
from repro.obs import spans as _spans
from repro.sim.backend import KERNEL
from repro.core.mirza import MirzaTracker
from repro.cpu.system import MultiCoreSystem, SimResult
from repro.dram.device import Riders
from repro.dram.mapping import RowToSubarrayMapping, mapping_for
from repro.mitigations.base import BankTracker
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.naive_mirza import NaiveMirzaTracker
from repro.mitigations.prac import PracTracker
from repro.params import DramGeometry, SimScale, SystemConfig
from repro.workloads.specs import WorkloadSpec, workload_by_name
from repro.workloads.synthetic import SyntheticWorkload

MINT_RFM_WINDOWS = {500: 24, 1000: 48, 2000: 96}
"""Figure 3: RFM every 24/48/96 activations for TRHD 500/1K/2K."""


@dataclass(frozen=True)
class MitigationSetup:
    """Everything that distinguishes one protected system from another."""

    name: str
    tracker_factory: Optional[Callable[[int, int, int], BankTracker]] = None
    """(seed, subchannel, bank) -> tracker; None = no tracker."""

    use_prac_timings: bool = False
    rfm_bat: Optional[int] = None
    mapping: str = "sequential"
    drfm_factory: Optional[Callable[[int, int], object]] = None
    """(seed, subchannel) -> DrfmEngine; None = no MC-side DRFM."""

    extra: dict = field(default_factory=dict, compare=False)

    @property
    def alert_only(self) -> bool:
        """True when a tracker is the only thing setting this system apart
        from the baseline: no PRAC timings, no RFM, no DRFM.

        Such a tracker reaches the controller only through ALERT (or by
        mitigating at a REF), so until it first does, its run is the
        baseline run with the tracker watching: it can ride a shared
        baseline pass (:func:`simulate_shared`).
        """
        return (self.tracker_factory is not None
                and not self.use_prac_timings and self.rfm_bat is None
                and self.drfm_factory is None)

    def make_mapping(self, config: SystemConfig) -> RowToSubarrayMapping:
        """Instantiate this setup's row-to-subarray mapping."""
        return mapping_for(self.mapping, config.geometry)


# ----------------------------------------------------------------------
# Picklable tracker/DRFM factories
# ----------------------------------------------------------------------
def _bank_rng(seed: int, subch: int, bank: int) -> random.Random:
    """The per-(seed, subchannel, bank) RNG every tracker derives from."""
    return random.Random(seed * 100_003 + subch * 257 + bank)


@dataclass(frozen=True)
class _PracFactory:
    """Per-row PRAC counter trackers (no randomness)."""

    trhd: int

    def __call__(self, seed: int, subch: int, bank: int) -> BankTracker:
        return PracTracker(self.trhd)


@dataclass(frozen=True)
class _MintFactory:
    """Proactive MINT trackers paced by an RFM window."""

    window: int

    def __call__(self, seed: int, subch: int, bank: int) -> BankTracker:
        return MintTracker(self.window, refs_per_mitigation=0,
                           rng=_bank_rng(seed, subch, bank))


@dataclass(frozen=True)
class _NaiveMirzaFactory:
    """MINT + MIRZA-Q trackers without coarse-grained filtering."""

    window: int
    queue_entries: int
    qth: int

    def __call__(self, seed: int, subch: int, bank: int) -> BankTracker:
        return NaiveMirzaTracker(self.window, self.queue_entries,
                                 self.qth,
                                 rng=_bank_rng(seed, subch, bank))


@dataclass(frozen=True)
class _MirzaFactory:
    """Full MIRZA trackers for one (already scaled) configuration."""

    config: MirzaConfig
    mapping: str = "strided"

    def __call__(self, seed: int, subch: int, bank: int) -> BankTracker:
        geometry = DramGeometry()
        return MirzaTracker(self.config, geometry,
                            mapping_for(self.mapping, geometry),
                            _bank_rng(seed, subch, bank))


@dataclass(frozen=True)
class _MistDrfmFactory:
    """MC-side DRFM engines (MIST-style sampling, Section X)."""

    sample_window: int
    acts_per_drfm: int
    min_samples: int = 1

    def __call__(self, seed: int, subch: int):
        from repro.mc.drfm import DrfmEngine
        rng = random.Random(seed * 7919 + subch * 31 + 5)
        return DrfmEngine(DramGeometry().banks_per_subchannel,
                          sample_window=self.sample_window,
                          acts_per_drfm=self.acts_per_drfm,
                          min_samples=self.min_samples, rng=rng)


# ----------------------------------------------------------------------
# Setup constructors
# ----------------------------------------------------------------------
def baseline_setup(mapping: str = "sequential") -> MitigationSetup:
    """The unprotected baseline system."""
    return MitigationSetup(name="baseline", mapping=mapping)


def prac_setup(trhd: int) -> MitigationSetup:
    """PRAC+ABO with the inflated Table I timings."""
    return MitigationSetup(name=f"prac-{trhd}",
                           tracker_factory=_PracFactory(trhd),
                           use_prac_timings=True,
                           extra={"trhd": trhd})


def mint_rfm_setup(trhd: int,
                   window: Optional[int] = None) -> MitigationSetup:
    """Proactive MINT paced by RFM every ``window`` activations."""
    if window is None:
        window = MINT_RFM_WINDOWS[trhd]
    return MitigationSetup(name=f"mint-rfm-{trhd}",
                           tracker_factory=_MintFactory(window),
                           rfm_bat=window,
                           extra={"trhd": trhd, "window": window})


def naive_mirza_setup(mint_window: int,
                      queue_entries: int = 4,
                      qth: int = 16) -> MitigationSetup:
    """MINT + ABO with a queue but no filtering (Section IV-A)."""
    return MitigationSetup(
        name=f"naive-mirza-w{mint_window}-q{queue_entries}",
        tracker_factory=_NaiveMirzaFactory(mint_window, queue_entries,
                                           qth),
        extra={"window": mint_window, "queue": queue_entries})


def mist_setup(trhd: int, sample_window: Optional[int] = None,
               acts_per_drfm: Optional[int] = None,
               min_samples: int = 1) -> MitigationSetup:
    """MC-side DRFM defence (MIST-style sampling, Section X).

    Defaults pace one DRFM per ``window`` channel activations with a
    per-bank MINT-style sample window sized like the MINT+RFM baseline
    for the same threshold.
    """
    window = (sample_window if sample_window is not None
              else MINT_RFM_WINDOWS[trhd])
    cadence = (acts_per_drfm if acts_per_drfm is not None
               else window * DramGeometry().banks_per_subchannel // 8)
    return MitigationSetup(
        name=f"mist-{trhd}",
        drfm_factory=_MistDrfmFactory(window, cadence, min_samples),
        extra={"trhd": trhd, "window": window})


def mirza_setup(trhd: int, scale: SimScale = SimScale(),
                config: Optional[MirzaConfig] = None,
                mapping: str = "strided") -> MitigationSetup:
    """The full MIRZA design at a Table VII operating point."""
    mirza_config = (config if config is not None
                    else MirzaConfig.paper_config(trhd))
    scaled = mirza_config.scaled(scale.time_scale)
    return MitigationSetup(name=f"mirza-{trhd}",
                           tracker_factory=_MirzaFactory(scaled,
                                                         mapping),
                           mapping=mapping,
                           extra={"trhd": trhd, "config": scaled})


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
_WORKLOAD_CACHE: "OrderedDict[Tuple, int]" = OrderedDict()
"""LRU map of (workload spec, time scale, seed, config) -> calibrated
``compute_per_miss_ps``.  The key holds the whole spec, not its name:
two specs that share a name calibrate apart.  Only the calibrated
*value* is cached, never the :class:`SyntheticWorkload` object itself:
every call gets a fresh workload, so a caller mutating its copy can't
corrupt later hits."""

_WORKLOAD_CACHE_LIMIT = 64
"""Entry bound of :data:`_WORKLOAD_CACHE`: far more keys than any report
calibrates, at a few hundred bytes each."""


def _resolve(workload: Union[str, WorkloadSpec]) -> WorkloadSpec:
    if isinstance(workload, str):
        return workload_by_name(workload)
    return workload


def _remember(key: Tuple, value: int) -> None:
    """Store one calibrated value as the newest LRU entry."""
    _WORKLOAD_CACHE[key] = value
    _WORKLOAD_CACHE.move_to_end(key)
    while len(_WORKLOAD_CACHE) > _WORKLOAD_CACHE_LIMIT:
        _WORKLOAD_CACHE.popitem(last=False)


def prime_calibrations(calibrated: Iterable[Tuple[Any, int]]) -> None:
    """Seed the calibration cache with values computed elsewhere.

    ``calibrated`` holds ``(job, compute_per_miss_ps)`` pairs, each job
    naming a key by its ``workload``, ``scale``, ``seed`` and ``config``
    (a :class:`~repro.sim.session.CalibrationJob`).  A session primes
    its own process and every pool worker this way with the values it
    calibrated once per batch, so no process re-runs probes another one
    already ran.
    """
    for job, value in calibrated:
        _remember((_resolve(job.workload), job.scale.time_scale,
                   job.seed, job.config), value)


def calibrated_workload(workload: Union[str, WorkloadSpec],
                        scale: SimScale = SimScale(64),
                        seed: int = 0,
                        config: SystemConfig = SystemConfig()
                        ) -> SyntheticWorkload:
    """A :class:`SyntheticWorkload` whose pacing hits the Table IV rate.

    The open-loop pacing guess assumes a fixed loaded latency; queueing
    makes the realised activation rate drift from the target by up to
    ~2x.  This helper closes the loop: it runs short unprotected probe
    windows and adjusts the per-miss compute budget until the measured
    activations per bank per window are within 8% of the workload's
    published mean (cached per (workload spec, scale, seed, config)).
    The whole procedure is deterministic, so worker processes converge
    on exactly the calibration the parent would have computed.

    The probes run with every observability sink uninstalled: they
    would otherwise count into the caller's registry or profile as
    kernel work, and only in whichever process happens to calibrate.
    An active profile instead records one calibration and its seconds
    for each key whose probes run here."""
    spec = _resolve(workload)
    key = (spec, scale.time_scale, seed, config)
    synthetic = SyntheticWorkload(spec, config, scale, seed=seed)
    cached = _WORKLOAD_CACHE.get(key)
    if cached is not None:
        _WORKLOAD_CACHE.move_to_end(key)
        synthetic.compute_per_miss_ps = cached
        return synthetic
    prof = _profile._ACTIVE
    t0 = perf_counter()
    window = scale.scaled_trefw(config.timings)
    probe = max(config.timings.tREFI * 4, window // 8)
    target_acts = (scale.scale_count(spec.acts_per_bank_per_window)
                   * config.geometry.total_banks) * (probe / window)
    with _obs.suppressed():
        for _ in range(4):
            system = MultiCoreSystem(
                config, synthetic.trace_factory(), mlp=synthetic.mlp,
                refs_per_window=scale.scaled_refs_per_window(
                    config.timings))
            result = system.run(probe)
            if result.total_requests == 0:
                break
            ratio = result.total_activations / max(1.0, target_acts)
            if 0.92 < ratio < 1.08:
                break
            # The realised inter-miss time is the compute budget plus
            # the (unknown) exposed memory time; shift the budget by
            # the error.
            measured_inter = (probe * config.num_cores
                              / result.total_requests)
            wanted_inter = measured_inter * ratio
            adjusted = max(250, int(synthetic.compute_per_miss_ps
                                    + (wanted_inter - measured_inter)))
            if adjusted == synthetic.compute_per_miss_ps:
                # A fixed point (the 250 ps floor, say): the next
                # probe would replay this one exactly.
                break
            synthetic.compute_per_miss_ps = adjusted
    _remember(key, synthetic.compute_per_miss_ps)
    if prof is not None:
        prof.add_calibration(perf_counter() - t0)
    return synthetic


def simulate(workload: Union[str, WorkloadSpec],
             setup: MitigationSetup,
             scale: SimScale = SimScale(64),
             seed: int = 0,
             config: SystemConfig = SystemConfig()) -> SimResult:
    """Simulate one scaled refresh window -- always fresh, never cached.

    This is the pure compute kernel underneath the session: a
    deterministic function of its arguments that both the in-process
    path and the process-pool workers call.  Submit a
    :class:`~repro.sim.session.SimJob` to a
    :class:`~repro.sim.session.SimSession` instead unless you
    specifically need to bypass result caching.

    When observability is requested (an installed registry/trace buffer
    or the ``REPRO_METRICS`` / ``REPRO_TRACE`` knobs), collection is
    scoped over system *construction and the run only* -- calibration
    probes are excluded -- and the snapshot/events are attached to the
    returned :class:`SimResult`.  Scoping after calibration is what
    keeps snapshots identical between serial and process-pool execution:
    whether a process calibrates or reuses a cached value depends on
    what it ran before, so probe traffic must never be counted
    (:func:`calibrated_workload` runs its probes with every sink
    uninstalled).
    """
    synthetic = calibrated_workload(workload, scale, seed, config)
    return simulate_source(synthetic, setup, scale, seed=seed,
                           config=config)


def simulate_shared(workload: Union[str, WorkloadSpec],
                    setups: Sequence[MitigationSetup],
                    scale: SimScale = SimScale(64),
                    seed: int = 0,
                    config: SystemConfig = SystemConfig()
                    ) -> Tuple[SimResult, List[Optional[SimResult]]]:
    """One baseline window that also serves ALERT-only ``setups``.

    Runs :func:`simulate` under :func:`baseline_setup` once, with each
    setup's per-bank trackers riding along passively on every ACT and
    REF (:class:`~repro.dram.device.Riders`).  Returns the baseline's
    result and, per setup, the result :func:`simulate` would return for
    it -- the baseline's, with the two oracle fields read under its own
    row mapping -- or ``None`` if the setup *diverged*: its tracker
    wanted an ALERT or mitigated at a REF, so its own run differs and
    must be simulated on its own.  Naive-MIRZA setups that differ only
    in queue size ride as one family on one tracker set
    (:func:`_tracker_sets`).  Observability data is the baseline's
    alone: a rider's result carries no metrics, trace events or spans.
    """
    base = baseline_setup()
    mappings = {}
    for setup in setups:
        if not setup.alert_only:
            raise ValueError(f"setup {setup.name!r} is not ALERT-only")
        if setup.mapping != base.mapping \
                and setup.mapping not in mappings:
            mappings[setup.mapping] = setup.make_mapping(config)
    members = _tracker_sets(setups)
    riders = Riders(
        [functools.partial(setups[pairs[0][0]].tracker_factory, seed)
         for pairs in members],
        [mappings.get(setups[pairs[0][0]].mapping) for pairs in members],
        members)
    synthetic = calibrated_workload(workload, scale, seed, config)
    served: List[Optional[SimResult]] = []
    try:
        result = simulate_source(synthetic, base, scale, seed=seed,
                                 config=config, riders=riders)
        for rider in range(len(setups)):
            if rider in riders.diverged:
                served.append(None)
                continue
            table = riders.unmitigated_by_bank(rider)
            served.append(replace(
                result, ipc=list(result.ipc),
                instructions=list(result.instructions),
                alerts=list(result.alerts), rfms=list(result.rfms),
                max_unmitigated_acts=max(map(max, table)),
                unmitigated_by_bank=table, metrics=None,
                trace_events=None, spans=None))
    finally:
        # The devices and their riders refer to each other: break the
        # cycle, or every pass's trackers outlive it until a full
        # garbage collection.
        riders.devices.clear()
    prof = _profile._ACTIVE
    if prof is not None:
        prof.add_shared_pass(len(setups) - len(riders.diverged),
                             len(riders.diverged), len(members))
    return result, served


def _tracker_sets(setups: Sequence[MitigationSetup]
                  ) -> List[List[Tuple[int, Optional[int]]]]:
    """The :class:`~repro.dram.device.Riders` members of ``setups``.

    Naive-MIRZA setups that differ only in queue size (Table V's W x Q
    grid) form one family, ascending in queue size: their trackers
    draw the same MINT samples from the same per-bank RNG, and MINT
    and the RCT never read the queue size.  Every other setup rides
    alone.  Sets come in the order of their first setup.
    """
    sets: Dict[Any, List[Tuple[int, Optional[int]]]] = {}
    for index, setup in enumerate(setups):
        factory = setup.tracker_factory
        if isinstance(factory, _NaiveMirzaFactory):
            key = (replace(factory, queue_entries=0), setup.mapping)
            sets.setdefault(key, []).append(
                (index, factory.queue_entries))
        else:
            sets[index] = [(index, None)]
    return [sorted(pairs, key=lambda pair: pair[1] or 0)
            for pairs in sets.values()]


def simulate_source(source, setup: MitigationSetup,
                    scale: SimScale = SimScale(64),
                    seed: int = 0,
                    config: SystemConfig = SystemConfig(),
                    tenants=None,
                    riders: Optional[Riders] = None) -> SimResult:
    """Simulate one window of an arbitrary ``WorkloadSource``.

    The source-agnostic half of :func:`simulate`: wires the system for
    ``setup`` around ``source`` (anything satisfying the
    :class:`~repro.workloads.WorkloadSource` seam -- calibrated
    synthetics, trace files, tenant compositions) and hands it to the
    kernel under the same observability scoping.  ``tenants``
    is the optional per-core tenant label list threaded into the
    system and back out on the result; ``riders`` are the passive
    trackers of a shared pass (see :func:`simulate_shared`).
    """
    sys_config = (config.with_prac_timings() if setup.use_prac_timings
                  else config)
    tracker_factory = None
    if setup.tracker_factory is not None:
        tracker_factory = (  # noqa: E731
            lambda subch, bank: setup.tracker_factory(seed, subch, bank))
    drfm_factory = None
    if setup.drfm_factory is not None:
        drfm_factory = (  # noqa: E731
            lambda subch: setup.drfm_factory(seed, subch))

    def build() -> MultiCoreSystem:
        return MultiCoreSystem(
            sys_config,
            trace_factory=source.trace_factory(),
            tracker_factory=tracker_factory,
            mapping_factory=lambda: setup.make_mapping(sys_config),
            rfm_bat=setup.rfm_bat,
            refs_per_window=scale.scaled_refs_per_window(config.timings),
            mlp=source.mlp,
            drfm_factory=drfm_factory,
            tenants=tenants,
            riders=riders,
        )

    window = scale.scaled_trefw(config.timings)
    return _run_kernel(build, window)


def _run_kernel(build: Callable[[], MultiCoreSystem], window: int
                ) -> SimResult:
    """Run ``build()`` over ``window`` on :data:`~repro.sim.backend.KERNEL`.

    The shared execution tail of every simulate entry point: each
    requested kind a result carries is collected over system
    construction and the run only, under a ``kernel:`` worker span,
    and attached to the result.
    """
    with _obs.collecting(*_obs.requested() & _obs.CARRIED) as col, \
            _obs.span(_spans.TRACK_WORKER, f"kernel:{KERNEL.name}",
                      {"pid": os.getpid()}) as attrs:
        result = KERNEL.run(build(), window)
        attrs["requests"] = result.total_requests
        attrs["activations"] = result.total_activations
    col.attach(result)
    return result


def synthesize_trace(workload: Union[str, WorkloadSpec],
                     scale: SimScale = SimScale(64),
                     seed: int = 0,
                     config: SystemConfig = SystemConfig(),
                     entries: Optional[int] = None):
    """A finite native trace sampled from a calibrated workload.

    Materialises roughly one window's worth of core-0 entries (or
    exactly ``entries`` of them) from the calibrated synthetic
    generator -- the repo's own stand-in for an externally recorded
    trace, used by the trace-calibration exhibit to close the loop
    ingestion -> replay -> Table IV check without shipping large
    fixtures.
    """
    from repro.cpu.trace import take
    spec = _resolve(workload)
    synthetic = calibrated_workload(spec, scale, seed, config)
    if entries is None:
        # Expected in-window misses across the machine: the per-bank
        # activation budget times banks, deflated by ACTs-per-miss.
        acts = (scale.scale_count(spec.acts_per_bank_per_window)
                * config.geometry.total_banks)
        entries = max(64, int(acts * spec.l3_mpki
                              / max(spec.act_pki, 1e-9)))
    return take(synthetic.trace(0), entries)


def simulate_trace(trace, setup: MitigationSetup,
                   scale: SimScale = SimScale(64),
                   seed: int = 0,
                   config: SystemConfig = SystemConfig(),
                   mlp: int = 8,
                   address_space=None) -> SimResult:
    """Replay an ingested trace through one simulated window.

    ``trace`` is a native trace path (``.gz``-aware), a list of
    :class:`~repro.cpu.trace.TraceEntry`, or a prebuilt
    :class:`~repro.workloads.tracefile.TraceFileWorkload`.  Paths and
    entry lists are wrapped in shard mode -- each core replays a
    contiguous slice -- so a converted trace's MPKI/ACT-PKI structure
    survives multi-core replay.  Coordinates are routed through
    ``address_space`` when given.
    """
    from repro.workloads.tracefile import TraceFileWorkload
    if isinstance(trace, TraceFileWorkload):
        source = trace
    else:
        source = TraceFileWorkload(
            trace, mlp=mlp, per_core="shard",
            address_space=address_space,
            geometry=config.geometry,
            shard_cores=config.num_cores)
    return simulate_source(source, setup, scale, seed=seed,
                           config=config)


def simulate_tenants(scenario, setup: MitigationSetup,
                     scale: SimScale = SimScale(64),
                     seed: int = 0,
                     config: SystemConfig = SystemConfig()
                     ) -> SimResult:
    """Simulate a multi-tenant scenario through one window.

    Victim tenants get *calibrated* synthetic sources (same closed
    loop as :func:`simulate`), attackers run their hammer kernels, and
    every tenant's stream is routed through its own address space.
    The result carries per-core tenant labels, so per-tenant IPC,
    slowdown, and escape exposure read straight off it.
    """
    from repro.workloads.tenants import TenantWorkload
    sources = {
        tenant.name: calibrated_workload(tenant.workload, scale, seed,
                                         config)
        for tenant in scenario.tenants if tenant.workload}
    workload = TenantWorkload(scenario, config, scale, seed=seed,
                              sources=sources)
    return simulate_source(
        workload, setup, scale, seed=seed, config=config,
        tenants=workload.tenant_labels(config.num_cores))
