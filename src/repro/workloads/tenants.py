"""Multi-tenant (inter-VM) workload composition.

Models co-located tenants sharing one DRAM device: an attacker VM
running the Figure 12 performance-attack kernel next to victim VMs
running Table IV workloads, each tenant's logical trace routed through
its own :class:`~repro.dram.mapping.AddressSpace` before touching the
shared ``(subchannel, bank, row)`` geometry.  Tenant identity is
threaded through :class:`~repro.cpu.core.Core` and
:class:`~repro.cpu.system.MultiCoreSystem` into
:class:`~repro.cpu.system.SimResult`, so per-tenant IPC, victim
slowdown, and per-tenant escape exposure fall out of a single run.

The composition itself is declarative: a :class:`TenantScenario` is a
frozen tuple of :class:`Tenant` descriptors (describable, so session
jobs can carry it), and :class:`TenantWorkload` builds the concrete
per-core sources at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cpu.trace import ChunkSource, TraceEntry, chunk_entries
from repro.dram.mapping import AddressSpace, AddressSpaceSpec, \
    IdentityAddressSpace
from repro.params import SimScale, SystemConfig
from repro.workloads.attacks import performance_attack_trace
from repro.workloads.specs import workload_by_name
from repro.workloads.synthetic import SyntheticWorkload


@dataclass(frozen=True)
class Tenant:
    """One co-located tenant: a set of cores plus what they run.

    Exactly one of two modes: ``workload`` names a Table IV spec the
    tenant's cores run (a victim VM), or ``attack_rows > 0`` makes the
    tenant an attacker whose cores each hammer a circular pattern of
    that many rows (the Figure 12 kernel) against
    ``(attack_subchannel, attack_bank)``.  Neither set means the
    tenant idles -- the no-attack control point of a pressure sweep.
    All of the tenant's trace coordinates are logical and are routed
    through ``address_space``.
    """

    name: str
    cores: Tuple[int, ...]
    workload: Optional[str] = None
    attack_rows: int = 0
    attack_bank: int = 0
    attack_subchannel: int = 0
    mlp: Optional[int] = None
    address_space: AddressSpaceSpec = field(
        default_factory=AddressSpaceSpec)

    @property
    def is_attacker(self) -> bool:
        return self.attack_rows > 0

    def validate(self) -> None:
        """Reject contradictory tenant descriptions, loudly."""
        if not self.cores:
            raise ValueError(f"tenant {self.name!r} has no cores")
        if self.workload and self.attack_rows:
            raise ValueError(
                f"tenant {self.name!r} sets both workload and "
                f"attack_rows; pick one")


@dataclass(frozen=True)
class TenantScenario:
    """A full-machine assignment of cores to tenants."""

    tenants: Tuple[Tenant, ...]

    def validate(self, num_cores: int) -> None:
        """Check core claims are in range and pairwise disjoint."""
        seen: Dict[int, str] = {}
        for tenant in self.tenants:
            tenant.validate()
            for core in tenant.cores:
                if core < 0 or core >= num_cores:
                    raise ValueError(
                        f"tenant {tenant.name!r} claims core {core}, "
                        f"system has {num_cores}")
                if core in seen:
                    raise ValueError(
                        f"core {core} claimed by both "
                        f"{seen[core]!r} and {tenant.name!r}")
                seen[core] = tenant.name

    def tenant_for_core(self) -> Dict[int, Tenant]:
        """Core index -> owning tenant, for every assigned core."""
        return {core: tenant for tenant in self.tenants
                for core in tenant.cores}

    def label(self) -> str:
        """Compact scenario label for cache keys and progress lines."""
        parts = []
        for t in self.tenants:
            what = t.workload or (
                f"atk{t.attack_rows}" if t.attack_rows else "idle")
            parts.append(f"{t.name}:{what}x{len(t.cores)}")
        return "+".join(parts)


def intervm_scenario(attack_rows: int = 8, victim: str = "mcf",
                     attacker_cores: int = 2, num_cores: int = 8,
                     attack_bank: int = 0, attack_subchannel: int = 0,
                     attacker_seed: int = 1, victim_seed: int = 2
                     ) -> TenantScenario:
    """The canonical two-tenant inter-VM scenario.

    An attacker VM on the first ``attacker_cores`` cores (idle when
    ``attack_rows == 0``, the control point) and a victim VM running
    ``victim`` on the rest, each behind its own seeded-permutation
    address space -- distinct guest physical maps over the same banks.
    """
    attacker = Tenant(
        name="attacker",
        cores=tuple(range(attacker_cores)),
        attack_rows=attack_rows,
        attack_bank=attack_bank,
        attack_subchannel=attack_subchannel,
        address_space=AddressSpaceSpec(kind="permuted",
                                       seed=attacker_seed))
    victim_tenant = Tenant(
        name="victim",
        cores=tuple(range(attacker_cores, num_cores)),
        workload=victim,
        address_space=AddressSpaceSpec(kind="permuted",
                                       seed=victim_seed))
    return TenantScenario(tenants=(attacker, victim_tenant))


class TranslatedChunkSource:
    """A :class:`~repro.cpu.trace.ChunkSource` routed through an
    :class:`~repro.dram.mapping.AddressSpace`.

    Each tuple chunk is translated with the space's scalar
    ``translate``.
    """

    __slots__ = ("_inner", "_space")

    def __init__(self, inner: ChunkSource, space: AddressSpace) -> None:
        self._inner = inner
        self._space = space

    def next_chunk(self):
        """Next tuple chunk, coordinates translated; None when done."""
        chunk = self._inner.next_chunk()
        if chunk is None:
            return None
        translate = self._space.translate
        return [(c, i) + translate(s, b, r)
                for c, i, s, b, r in chunk]

    def __iter__(self) -> Iterator[TraceEntry]:
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            for tup in chunk:
                yield TraceEntry(*tup)


def scenario_footprints(scenario: TenantScenario,
                        config: SystemConfig = SystemConfig()
                        ) -> Dict[str, List[Tuple[int, int]]]:
    """Physical ``(subchannel, bank)`` footprint of each tenant.

    Attackers touch exactly their configured bank (translated through
    their address space, whose row table this never builds); workload
    tenants stripe over every bank, and address spaces permute banks
    bijectively, so their footprint is the whole device.  Escape
    exposure per tenant is the worst unmitigated-ACT count inside this
    footprint.
    """
    g = config.geometry
    all_banks = [(s, b) for s in range(g.subchannels)
                 for b in range(g.banks_per_subchannel)]
    footprints: Dict[str, List[Tuple[int, int]]] = {}
    for tenant in scenario.tenants:
        if tenant.is_attacker:
            footprints[tenant.name] = [tenant.address_space.translate_bank(
                tenant.attack_subchannel, tenant.attack_bank, g)]
        elif tenant.workload:
            footprints[tenant.name] = list(all_banks)
        else:
            footprints[tenant.name] = []
    return footprints


class TenantWorkload:
    """A :class:`~repro.workloads.WorkloadSource` composing tenants.

    Each tenant's member cores draw from the tenant's own source -- a
    calibrated synthetic workload for victims, the performance-attack
    kernel for attackers, nothing for idle tenants -- wrapped in a
    :class:`TranslatedChunkSource` for the tenant's address space.
    Unassigned cores idle.  ``sources`` lets the runner substitute
    calibrated victim workloads; by default victims run uncalibrated
    synthetic generators.
    """

    def __init__(self, scenario: TenantScenario,
                 config: SystemConfig = SystemConfig(),
                 scale: SimScale = SimScale(), seed: int = 0,
                 sources: Optional[Dict[str, object]] = None) -> None:
        scenario.validate(config.num_cores)
        self.scenario = scenario
        self.config = config
        self._spaces: Dict[str, AddressSpace] = {
            t.name: t.address_space.build(config.geometry)
            for t in scenario.tenants}
        self._sources: Dict[str, object] = dict(sources or {})
        for tenant in scenario.tenants:
            if tenant.name in self._sources or not tenant.workload:
                continue
            self._sources[tenant.name] = SyntheticWorkload(
                workload_by_name(tenant.workload), config, scale,
                seed=seed)
        self._core_tenant = scenario.tenant_for_core()
        mlps = []
        for tenant in scenario.tenants:
            if tenant.mlp is not None:
                mlps.append(tenant.mlp)
            elif tenant.workload:
                mlps.append(self._sources[tenant.name].mlp)
            elif tenant.is_attacker:
                mlps.append(1)
        self.mlp = max(mlps) if mlps else 1

    def tenant_of(self, core_id: int) -> Optional[str]:
        """Name of the tenant owning ``core_id``, if any."""
        tenant = self._core_tenant.get(core_id)
        return tenant.name if tenant else None

    def tenant_labels(self, num_cores: Optional[int] = None
                      ) -> List[Optional[str]]:
        """Per-core tenant names, for ``MultiCoreSystem(tenants=...)``."""
        count = num_cores if num_cores is not None \
            else self.config.num_cores
        return [self.tenant_of(i) for i in range(count)]

    def _attack_trace(self, tenant: Tenant,
                      member_index: int) -> Iterator[TraceEntry]:
        # Each attacking core hammers its own disjoint K-row region so
        # attacker cores don't collapse onto one another's rows.
        return performance_attack_trace(
            self.config, k_rows=tenant.attack_rows,
            bank=tenant.attack_bank,
            subchannel=tenant.attack_subchannel,
            region_base_row=member_index * tenant.attack_rows)

    def chunk_source(self, core_id: int) -> ChunkSource:
        """One core's translated chunk stream."""
        tenant = self._core_tenant.get(core_id)
        if tenant is None:
            return chunk_entries(iter(()))
        source = self._sources.get(tenant.name)
        if source is not None:
            inner = source.chunk_source(core_id)
        elif tenant.is_attacker:
            member = tenant.cores.index(core_id)
            inner = chunk_entries(self._attack_trace(tenant, member))
        else:
            inner = chunk_entries(iter(()))
        space = self._spaces[tenant.name]
        if isinstance(space, IdentityAddressSpace):
            return inner
        return TranslatedChunkSource(inner, space)

    def trace_factory(self) -> Callable[[int], ChunkSource]:
        """``core_id -> trace`` callable for ``MultiCoreSystem``."""
        return self.chunk_source
