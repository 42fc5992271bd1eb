"""Workloads: Table IV descriptors, synthetic traces, attack kernels.

The paper evaluates 24 workloads (SPEC-2017 with MPKI >= 1, the six GAP
graph kernels, and six mixes).  We reproduce each as a synthetic trace
generator calibrated to the workload's published characteristics --
L3 MPKI, ACT-PKI, bus utilisation, and the mean/std of activations per
subarray per refresh window -- since those four statistics are exactly
what every result in the paper is a function of (see DESIGN.md).

Everything that can feed cores -- the calibrated synthetic generators,
multiprogrammed mixes, recorded trace files, and the adversarial
kernels -- satisfies one seam, :class:`WorkloadSource`: an ``mlp``
hint, a per-core :meth:`~WorkloadSource.chunk_source`, and a
:meth:`~WorkloadSource.trace_factory` that
:class:`repro.cpu.system.MultiCoreSystem` consumes directly.
"""

from typing import Callable, Protocol, runtime_checkable

from repro.cpu.trace import ChunkSource
from repro.workloads.attacks import (
    AttackWorkload,
    double_sided_attack_stream,
    feinting_attack_stream,
    performance_attack_trace,
    trr_evasion_pattern,
)
from repro.workloads.patterns import (
    AttackPattern,
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    Feint,
    HalfDouble,
    NSided,
    RefreshSyncBurst,
    RowCycle,
    Sequence,
    paper_attack_set,
)
from repro.workloads.specs import (
    ALL_WORKLOADS,
    GAP_WORKLOADS,
    MIX_WORKLOADS,
    SPEC_WORKLOADS,
    WorkloadSpec,
    workload_by_name,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tenants import (
    Tenant,
    TenantScenario,
    TenantWorkload,
    TranslatedChunkSource,
    intervm_scenario,
    scenario_footprints,
)
from repro.workloads.tracefile import (
    TRACE_FORMATS,
    TraceFileWorkload,
    calibration_report,
    convert_trace,
    detect_format,
    load_trace,
    open_ingest,
    read_dramsim3_trace,
    read_litex_rows,
    read_trace,
    trace_metadata,
    write_trace,
)


@runtime_checkable
class WorkloadSource(Protocol):
    """What a workload must provide to drive a multi-core system.

    :class:`~repro.workloads.synthetic.SyntheticWorkload`,
    :class:`~repro.workloads.mixed.MixedWorkload`,
    :class:`~repro.workloads.tracefile.TraceFileWorkload`, and
    :class:`~repro.workloads.attacks.AttackWorkload` all satisfy it; a
    custom source can be any object with these three members.
    """

    mlp: int
    """Outstanding-miss budget the cores should run with."""

    def chunk_source(self, core_id: int) -> ChunkSource:
        """The chunked miss trace for one core."""
        ...

    def trace_factory(self) -> Callable[[int], ChunkSource]:
        """``core_id -> trace`` callable for ``MultiCoreSystem``."""
        ...


__all__ = [
    "ALL_WORKLOADS",
    "AttackPattern",
    "AttackWorkload",
    "CompileContext",
    "DecoyEvasion",
    "DoubleSided",
    "Feint",
    "GAP_WORKLOADS",
    "HalfDouble",
    "MIX_WORKLOADS",
    "NSided",
    "RefreshSyncBurst",
    "RowCycle",
    "SPEC_WORKLOADS",
    "Sequence",
    "SyntheticWorkload",
    "TRACE_FORMATS",
    "Tenant",
    "TenantScenario",
    "TenantWorkload",
    "TraceFileWorkload",
    "TranslatedChunkSource",
    "WorkloadSource",
    "WorkloadSpec",
    "calibration_report",
    "convert_trace",
    "detect_format",
    "double_sided_attack_stream",
    "feinting_attack_stream",
    "intervm_scenario",
    "load_trace",
    "open_ingest",
    "paper_attack_set",
    "performance_attack_trace",
    "read_dramsim3_trace",
    "read_litex_rows",
    "read_trace",
    "scenario_footprints",
    "trace_metadata",
    "trr_evasion_pattern",
    "workload_by_name",
    "write_trace",
]
