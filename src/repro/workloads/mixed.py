"""Multi-programmed (mixed) workloads: a different trace per core.

The paper's six ``mix_*`` workloads are multi-programmed combinations
of SPEC/GAP applications (Section III-B).  Table IV publishes only the
aggregate characteristics, which the synthetic rate-mode generator
reproduces; this module adds true heterogeneous mixes -- core 0 runs
one application, core 1 another -- for studies where per-application
slowdown under a shared channel matters (e.g. the DoS analysis of
Section IX, where one attacker core degrades seven victims).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Union

from repro.cpu.trace import ChunkSource, TraceEntry
from repro.params import SimScale, SystemConfig
from repro.workloads.specs import WorkloadSpec, workload_by_name
from repro.workloads.synthetic import SyntheticWorkload

PAPER_MIXES = {
    # Plausible constituents chosen to land near each mix's published
    # aggregate intensity (the paper does not name the members).
    "mix_1": ["cc", "mcf", "omnetpp", "parest",
              "bwaves", "xz", "roms", "lbm"],
    "mix_2": ["bc", "fotonik3d", "mcf", "cam4",
              "parest", "xz", "bfs", "roms"],
    "mix_3": ["pr", "lbm", "omnetpp", "cactuBSSN",
              "xz", "mcf", "roms", "cam4"],
    "mix_4": ["tc", "fotonik3d", "xz", "xalancbmk",
              "omnetpp", "roms", "cam4", "mcf"],
    "mix_5": ["cc", "lbm", "fotonik3d", "mcf",
              "omnetpp", "xz", "parest", "bwaves"],
    "mix_6": ["sssp", "lbm", "mcf", "parest",
              "omnetpp", "xz", "cactuBSSN", "roms"],
}


class MixedWorkload:
    """Per-core heterogeneous traces over a shared memory system."""

    def __init__(self, members: Sequence[Union[str, WorkloadSpec]],
                 config: SystemConfig = SystemConfig(),
                 scale: SimScale = SimScale(),
                 seed: int = 0) -> None:
        if not members:
            raise ValueError("a mix needs at least one member")
        specs = [workload_by_name(m) if isinstance(m, str) else m
                 for m in members]
        # Round-robin the members over the cores.
        self.assignments: List[WorkloadSpec] = [
            specs[core % len(specs)] for core in range(config.num_cores)]
        self.config = config
        self._generators = [
            SyntheticWorkload(spec, config, scale,
                              seed=seed * 1009 + core)
            for core, spec in enumerate(self.assignments)]

    @classmethod
    def paper_mix(cls, name: str,
                  config: SystemConfig = SystemConfig(),
                  scale: SimScale = SimScale(),
                  seed: int = 0) -> "MixedWorkload":
        """One of the six Table IV mixes by name."""
        try:
            members = PAPER_MIXES[name]
        except KeyError:
            known = ", ".join(sorted(PAPER_MIXES))
            raise KeyError(f"unknown mix {name!r}; known: {known}") \
                from None
        return cls(members, config, scale, seed)

    def trace(self, core_id: int) -> Iterator[TraceEntry]:
        """Infinite miss trace for ``core_id``'s assigned member."""
        return self._generators[core_id].trace(core_id)

    def chunk_source(self, core_id: int) -> ChunkSource:
        """Chunked trace of ``core_id``'s member (hot-path form)."""
        return self._generators[core_id].chunk_source(core_id)

    def trace_factory(self):
        """``core_id -> trace`` callable for MultiCoreSystem."""
        return self.chunk_source

    @property
    def mlp(self) -> int:
        """Conservative shared MLP: the maximum any member needs."""
        return max(g.mlp for g in self._generators)
