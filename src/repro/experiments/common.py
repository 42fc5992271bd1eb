"""Shared plumbing for the experiment modules.

Besides the environment knobs (scales, workload subsets, seed), this
module holds the activation-level counting tier.  :class:`CgfJob`
counts one benign row stream -- keyed by (workload, scale, config,
seed) -- in a single pass through any number of Region Count Table
filters, one table scan per (mapping, region count) answering every
FTH, plus, when asked, the per-subarray ACT histogram.  It is a
session job, so counting results are cacheable and process-pool
dispatchable exactly like the timed ``SimJob`` runs.  The experiment
planner folds every counting cell that reads one stream into one
:class:`CgfJob` (:meth:`CgfJob.merge`), so a report generates each
stream once.  :func:`measure_cgf`, :func:`acts_per_subarray_for` and
:class:`SubarrayStatsJob` are one-line views of the same pass.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from itertools import chain, islice
from time import perf_counter
from typing import (
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._env import env_int
from repro.core.rct import RegionCountTable
from repro.dram.mapping import mapping_for
from repro.dram.refresh import RefreshScheduler
from repro.obs import profile as _profile
from repro.params import SimScale, SystemConfig
from repro.sim.session import register_job_type
from repro.workloads.specs import ALL_WORKLOADS, WorkloadSpec, \
    workload_by_name
from repro.workloads.synthetic import SyntheticWorkload

DEFAULT_SUBSET = ["cc", "fotonik3d", "tc", "blender", "mcf", "bc"]
"""Representative subset: the heaviest GAP/SPEC workloads plus light
ones, spanning the full range of ACT intensity and spread."""


def default_scale() -> SimScale:
    """Simulation window divisor (REPRO_TIME_SCALE, default 512)."""
    return SimScale(env_int("REPRO_TIME_SCALE", 512))


def cgf_scale() -> SimScale:
    """Window divisor for activation-level CGF measurements.

    Counting experiments are orders of magnitude cheaper than timed
    simulation, and the filter's escape probability is sensitive to the
    count-to-FTH granularity, so they run at a much milder scale
    (REPRO_CGF_SCALE, default 16: per-region counts of ~50-100 against
    an FTH of ~94 at TRHD=1K).
    """
    return SimScale(env_int("REPRO_CGF_SCALE", 16))


def default_seed() -> int:
    """Base RNG seed for simulation sweeps (REPRO_SEED, default 0)."""
    return env_int("REPRO_SEED", 0)


def selected_workloads(names: Optional[Iterable[str]] = None
                       ) -> List[WorkloadSpec]:
    """Workload list from the argument or REPRO_WORKLOADS."""
    if names is None:
        raw = os.environ.get("REPRO_WORKLOADS", "")
        if raw.strip().lower() == "all":
            return list(ALL_WORKLOADS)
        names = [n for n in raw.split(",") if n.strip()] or DEFAULT_SUBSET
    return [workload_by_name(n.strip()) for n in names]


@dataclass
class CgfStats:
    """Activation-level coarse-grained-filtering measurement."""

    total_acts: int
    filtered: int
    escaped: int

    @property
    def filtered_pct(self) -> float:
        return 100.0 * self.filtered / self.total_acts \
            if self.total_acts else 0.0

    @property
    def remaining_pct(self) -> float:
        return 100.0 * self.escaped / self.total_acts \
            if self.total_acts else 0.0


BLOCK_ACTS = 256
"""ACTs a counting pass buffers per bank before landing them (rounded
down to whole REF intervals).  A few hundred amortise each scan's
call over many short intervals -- a bank sees 1-22 ACTs between REFs
at every scale -- while a pass's memory stays one block per bank."""


@dataclass(frozen=True, order=True)
class RctFilter:
    """One Region Count Table configuration a counting pass evaluates.

    Ordered, so a merged job can list its filters canonically.
    """

    mapping_kind: str
    """Row-to-subarray mapping: ``"sequential"`` or ``"strided"``."""

    fth: int
    num_regions: int = 128

    def __post_init__(self) -> None:
        mapping_for(self.mapping_kind)  # ValueError for an unknown kind


@dataclass(frozen=True)
class StreamCounts:
    """What one counting pass measured over a row stream."""

    cgf: Tuple[CgfStats, ...] = ()
    """One :class:`CgfStats` per filter, in the job's ``filters`` order."""

    subarrays: Optional[Tuple[float, float]] = None
    """(mean, std) ACTs per subarray under strided mapping, if asked."""


@dataclass(frozen=True)
class CgfJob:
    """One counting pass over a row stream, as a cacheable session job.

    The stream is keyed by (``spec``, ``scale``, ``config``, ``seed``):
    the workload generator's per-core miss traces, round-robined one
    entry per core so bank interleaving matches the timed simulation's,
    cut at one scaled window of activations.  There is no command
    timing; the refresh sweep advances at the equivalent per-bank ACT
    cadence.  The pass counts every entry of ``filters`` (Table VI, the
    escape probability of Table VIII and Figure 13) with one per-bank
    RCT per (mapping, region count) and, when ``subarrays`` is set,
    counts ACTs per subarray under strided mapping (Figure 6, Table IV).
    """

    spec: WorkloadSpec
    filters: Tuple[RctFilter, ...] = ()
    subarrays: bool = False
    scale: SimScale = SimScale(512)
    config: SystemConfig = SystemConfig()
    seed: int = 0

    @classmethod
    def single(cls, spec: WorkloadSpec, mapping_kind: str, fth: int,
               num_regions: int = 128, scale: SimScale = SimScale(512),
               config: SystemConfig = SystemConfig(),
               seed: int = 0) -> "CgfJob":
        """A one-filter job: what one Table VI or VIII cell declares."""
        return cls(spec, (RctFilter(mapping_kind, fth, num_regions),),
                   scale=scale, config=config, seed=seed)

    @classmethod
    def merge(cls, jobs: Sequence["CountingJob"]) -> "CgfJob":
        """One job whose single pass answers every job in ``jobs``.

        The jobs must read the same stream.  Filters are deduplicated
        and sorted, so the merged job's cache token does not depend on
        the order the cells were declared in.
        """
        streams = {job.stream for job in jobs}
        if len(streams) != 1:
            raise ValueError("only counting jobs that read the same row "
                             "stream can merge")
        spec, scale, config, seed = streams.pop()
        return cls(spec,
                   tuple(sorted({f for job in jobs for f in job.filters})),
                   any(job.subarrays for job in jobs), scale, config, seed)

    @property
    def stream(self) -> Tuple[WorkloadSpec, SimScale, SystemConfig, int]:
        """The key of the row stream this job reads."""
        return (self.spec, self.scale, self.config, self.seed)

    def label(self) -> str:
        """Span/progress name, e.g. ``cgf:mcf/x16/seed0 (8 filters +
        subarrays)``."""
        if len(self.filters) == 1:
            (only,) = self.filters
            parts = [f"{only.mapping_kind} fth{only.fth} "
                     f"r{only.num_regions}"]
        else:
            parts = [f"{len(self.filters)} filters"]
        if self.subarrays:
            parts.append("subarrays")
        return (f"cgf:{self.spec.name}/x{self.scale.time_scale}/"
                f"seed{self.seed} ({' + '.join(parts)})")

    def result_from(self, merged: "CgfJob",
                    counts: StreamCounts) -> StreamCounts:
        """What this job returns, read off the ``counts`` of a
        ``merged`` job that covers it."""
        return StreamCounts(
            tuple(counts.cgf[merged.filters.index(f)]
                  for f in self.filters),
            counts.subarrays if self.subarrays else None)

    def execute(self) -> StreamCounts:
        """Count the stream in one pass (uncached; the worker path).

        Filters that share a mapping and a region count differ only in
        FTH, so each such group is one *scan*: one RCT per bank at the
        group's largest FTH, whose decision-count tally (see
        :meth:`~repro.core.rct.RegionCountTable.on_block`) gives every
        member its escaped and filtered counts.  Each bank meets one
        REF every ``acts_per_ref`` of its ACTs.  Its rows are buffered
        up to :data:`BLOCK_ACTS`, rounded down to whole REF intervals;
        a full block is mapped once per mapping kind, counted into the
        subarray histogram, and landed on every scan's RCT with one
        ``on_block`` call, which applies the bank's REF slices at the
        interval boundaries.  The window's cut lands each bank's
        remainder the same way, a trailing partial interval included.
        So a pass holds at most one block per bank, however long the
        window.
        """
        started = perf_counter()
        spec, scale, config = self.spec, self.scale, self.config
        geometry = config.geometry
        acts_per_bank = scale.scale_count(spec.acts_per_bank_per_window)
        total_acts = int(acts_per_bank * geometry.total_banks)
        refs = scale.scaled_refs_per_window(config.timings)
        acts_per_ref = max(1, int(acts_per_bank / refs))
        block = max(1, BLOCK_ACTS // acts_per_ref) * acts_per_ref
        # Each scan, keyed (mapping kind, regions), runs at the largest
        # FTH of its filters and keeps one tally for all its banks.
        scans: Dict[Tuple[str, int], int] = {}
        for f in self.filters:
            key = (f.mapping_kind, f.num_regions)
            scans[key] = max(f.fth, scans.get(key, 0))
        tallies = {key: [0] * (fth + 2) for key, fth in scans.items()}
        mappings = {kind: mapping_for(kind, geometry) for kind in
                    {kind for kind, _ in scans}
                    | ({"strided"} if self.subarrays else set())}
        banks = geometry.subchannels * geometry.banks_per_subchannel
        rcts = [[RegionCountTable(regions, fth, geometry)
                 for (_, regions), fth in scans.items()]
                for _ in range(banks)]
        # The RCT reads only a slice's physical bounds, which do not
        # depend on the mapping: one window of slices serves every bank,
        # each cycling through it at its own pace.  Each scan's region
        # bounds of each slice are computed once, and repeated so that
        # the REFs any one landing crosses are one run of the list.
        sweep = RefreshScheduler(geometry, refs_per_window=refs)
        slices = [sweep.peek_slice(i) for i in range(refs)]
        repeats = 1 + -(-(block // acts_per_ref) // refs)
        bounds = [[rct.slice_bounds(slice_) for slice_ in slices] * repeats
                  for rct in rcts[0]]
        histograms = [[0] * geometry.subarrays_per_bank
                      for _ in range(banks)]
        rows_per_sa = geometry.rows_per_subarray
        refs_done = [0] * banks

        def land(bank: int, rows: List[int]) -> None:
            done = refs_done[bank]
            crossed = len(rows) // acts_per_ref
            refs_done[bank] = done + crossed
            start = done % refs
            physical = {kind: mapping.physical_indices(rows)
                        for kind, mapping in mappings.items()}
            for rct, scan_bounds, ((kind, _), tally) in zip(
                    rcts[bank], bounds, tallies.items()):
                rct.on_block(physical[kind], acts_per_ref,
                             scan_bounds[start:start + crossed], tally)
            if self.subarrays:
                histogram = histograms[bank]
                for p in physical["strided"]:
                    histogram[p // rows_per_sa] += 1

        synthetic = SyntheticWorkload(spec, config, scale, seed=self.seed)
        cores = [chain.from_iterable(synthetic.trace_chunks(core))
                 for core in range(config.num_cores)]
        per_subchannel = geometry.banks_per_subchannel
        pending: List[List[int]] = [[] for _ in range(banks)]
        for _, _, subchannel, bank, row in islice(
                chain.from_iterable(zip(*cores)), total_acts):
            index = subchannel * per_subchannel + bank
            rows = pending[index]
            rows.append(row)
            if len(rows) == block:
                land(index, rows)
                rows.clear()
        for index, rows in enumerate(pending):
            if rows:
                land(index, rows)

        cgf = []
        for f in self.filters:
            tally = tallies[(f.mapping_kind, f.num_regions)]
            cgf.append(CgfStats(total_acts=total_acts,
                                filtered=sum(tally[:f.fth + 1]),
                                escaped=sum(tally[f.fth + 1:])))
        subarrays = None
        if self.subarrays:
            values = [count for histogram in histograms
                      for count in histogram]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            subarrays = (mean, var ** 0.5)
        profile = _profile._ACTIVE
        if profile is not None:
            profile.add_counting_pass(total_acts, len(self.filters),
                                      len(scans),
                                      perf_counter() - started)
        return StreamCounts(tuple(cgf), subarrays)


@dataclass(frozen=True)
class SubarrayStatsJob:
    """The per-subarray ACT histogram of one row stream, as a job.

    It reads like a :class:`CgfJob` with no filters and ``subarrays``
    set, and the planner folds it into its stream's merged job.
    """

    spec: WorkloadSpec
    scale: SimScale = SimScale(512)
    config: SystemConfig = SystemConfig()
    seed: int = 0

    filters: ClassVar[Tuple[RctFilter, ...]] = ()
    subarrays: ClassVar[bool] = True

    @property
    def stream(self) -> Tuple[WorkloadSpec, SimScale, SystemConfig, int]:
        """The key of the row stream this job reads."""
        return (self.spec, self.scale, self.config, self.seed)

    def label(self) -> str:
        """Span/progress name, e.g. ``subarrays:mcf/x16/seed0``."""
        return (f"subarrays:{self.spec.name}/x{self.scale.time_scale}/"
                f"seed{self.seed}")

    def result_from(self, merged: CgfJob,
                    counts: StreamCounts) -> Tuple[float, float]:
        """What this job returns, read off a merged job's counts."""
        return counts.subarrays

    def execute(self) -> Tuple[float, float]:
        """Run the pass for the histogram alone (uncached)."""
        return CgfJob.merge([self]).execute().subarrays


CountingJob = Union[CgfJob, SubarrayStatsJob]
"""A counting cell's job; the planner merges these per row stream."""


def _decode_counts(payload: dict) -> StreamCounts:
    subarrays = payload["subarrays"]
    return StreamCounts(
        tuple(CgfStats(**stats) for stats in payload["cgf"]),
        None if subarrays is None else tuple(subarrays))


register_job_type(CgfJob, dataclasses.asdict, _decode_counts)
register_job_type(SubarrayStatsJob, list, tuple)


def measure_cgf(spec: WorkloadSpec,
                mapping_kind: str,
                fth: int,
                num_regions: int = 128,
                scale: SimScale = SimScale(512),
                config: SystemConfig = SystemConfig(),
                seed: int = 0) -> CgfStats:
    """Filter one window of a workload's activations through per-bank
    RCTs (see :class:`CgfJob`)."""
    return CgfJob.single(spec, mapping_kind, fth, num_regions, scale,
                         config, seed).execute().cgf[0]


def acts_per_subarray_for(spec: WorkloadSpec,
                          scale: SimScale = SimScale(512),
                          config: SystemConfig = SystemConfig(),
                          seed: int = 0) -> Tuple[float, float]:
    """(mean, std) activations per subarray per window under strided
    mapping -- the Figure 6 / Table IV measurement, activation-level."""
    return SubarrayStatsJob(spec, scale, config, seed).execute()
