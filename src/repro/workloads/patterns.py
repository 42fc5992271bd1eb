"""Declarative attack-pattern DSL: one vocabulary, two compilations.

Every attack the repository knows -- the paper's fixed set
(:func:`paper_attack_set`), the Figure 12 performance kernel an
attacker tenant runs, the litex-rowhammer-tester style row-list
programs, and the Blacksmith/Phoenix refresh-synchronized sweeps -- is
expressed as a frozen :class:`AttackPattern` dataclass.  Frozen specs
are *job material*: they hash by content through
:func:`repro.sim.session.describe`, so a pattern embedded in a
:class:`~repro.security.fuzz.FuzzJob` is cacheable and reproducible by
construction.

A pattern compiles two ways from the same definition:

- :meth:`AttackPattern.rows` -- the bare activation stream (one logical
  ACT per element) that :class:`repro.security.attacks.
  SingleBankHarness` consumes in security tests;
- :meth:`AttackPattern.chunk_source` / :meth:`AttackPattern.workload`
  -- the same stream as chunked core trace entries, and an
  :class:`AttackWorkload` serving it to chosen cores, for full-system
  runs, which the kernel consumes through the ``WorkloadSource`` seam.

Compilation is parameterised by a :class:`CompileContext` -- the
row-to-subarray mapping, the bank/subchannel coordinates, and the
ACTs-per-tREFI budget refresh-synchronized patterns align against.
The context carries live objects and is *not* part of the job
identity; jobs record the mapping by name and rebuild the context at
execute time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.cpu.trace import ChunkSource, TraceEntry, chunk_entries
from repro.dram.mapping import RowToSubarrayMapping, SequentialR2SA
from repro.params import SystemConfig, ns


@dataclass(frozen=True)
class CompileContext:
    """Everything a pattern needs to compile that is *not* its shape.

    ``acts_per_trefi`` is the attacker's ACT budget between REF
    commands -- refresh-synchronized patterns phase their bursts
    against it, so it must match the harness/system the compiled
    stream is fed into.
    """

    mapping: RowToSubarrayMapping
    acts_per_trefi: int
    bank: int = 0
    subchannel: int = 0
    compute_ps: int = ns(0.25)

    @classmethod
    def make(cls, mapping: Optional[RowToSubarrayMapping] = None,
             config: Optional[SystemConfig] = None,
             acts_per_trefi: Optional[int] = None,
             bank: int = 0, subchannel: int = 0) -> "CompileContext":
        """Context over ``mapping`` with config-derived defaults."""
        config = config if config is not None else SystemConfig()
        if mapping is None:
            mapping = SequentialR2SA(config.geometry)
        if acts_per_trefi is None:
            from repro.security.analysis import acts_per_ref_interval
            acts_per_trefi = acts_per_ref_interval(config.timings)
        return cls(mapping=mapping, acts_per_trefi=acts_per_trefi,
                   bank=bank, subchannel=subchannel)


@dataclass(frozen=True)
class AttackPattern:
    """Base of every pattern spec; subclasses implement :meth:`rows`."""

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        """The bare activation stream (security-test compilation)."""
        raise NotImplementedError

    def label(self) -> str:
        """Deterministic short name: kebab class name + shape fields."""
        name = "".join("-" + c.lower() if c.isupper() else c
                       for c in type(self).__name__).lstrip("-")
        parts = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                          for f in fields(self) if f.compare)
        return f"{name}({parts})"

    def trace(self, ctx: CompileContext) -> Iterator[TraceEntry]:
        """The same stream as core trace entries (timed compilation)."""
        for row in self.rows(ctx):
            yield TraceEntry(compute_ps=ctx.compute_ps, instructions=1,
                             subchannel=ctx.subchannel, bank=ctx.bank,
                             row=row)

    def chunk_source(self, ctx: CompileContext,
                     chunk_size: int = 256) -> ChunkSource:
        """The timed compilation, chunked for the core fast path."""
        return chunk_entries(self.trace(ctx), chunk_size)

    def workload(self, ctx: CompileContext,
                 cores: Iterable[int] = (0,),
                 mlp: int = 1) -> "AttackWorkload":
        """An :class:`AttackWorkload` driving this pattern on ``cores``
        (full-system compilation)."""
        return AttackWorkload(self, ctx, cores, mlp)


class AttackWorkload:
    """A compiled pattern as a :class:`~repro.workloads.WorkloadSource`.

    Each of ``cores`` replays the pattern's timed compilation from its
    start; every other core idles for the window.
    """

    def __init__(self, pattern: AttackPattern, ctx: CompileContext,
                 cores: Iterable[int], mlp: int) -> None:
        self.pattern = pattern
        self.ctx = ctx
        self.cores = frozenset(cores)
        self.mlp = mlp

    def chunk_source(self, core_id: int) -> ChunkSource:
        """One core's chunked attack trace (empty off ``cores``)."""
        if core_id not in self.cores:
            return chunk_entries(iter(()))
        return self.pattern.chunk_source(self.ctx)


# ----------------------------------------------------------------------
# Row-list and sandwich patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RowCycle(AttackPattern):
    """Max-rate circular activations over an explicit row list (the
    litex-rowhammer-tester row-list idiom; one row = focused hammer)."""

    row_list: Tuple[int, ...]
    acts: int

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        if not self.row_list:
            raise ValueError("need at least one row")
        cycle = itertools.cycle(self.row_list)
        for _ in range(self.acts):
            yield next(cycle)


@dataclass(frozen=True)
class DoubleSided(AttackPattern):
    """The classic sandwich: alternate the victim's physical neighbours.

    A victim at a subarray edge has only one physical neighbour; the
    pattern then degrades to single-sided hammering of that neighbour
    (a fuzzer picks victims uniformly, so edges must be survivable).
    ``allow_single_sided=False`` restores a hard ``ValueError``.
    """

    victim_row: int
    acts: int
    allow_single_sided: bool = True

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        neighbors = ctx.mapping.physical_neighbors(self.victim_row,
                                                   blast_radius=1)
        if not neighbors:
            raise ValueError("victim row has no physical neighbours")
        if len(neighbors) < 2 and not self.allow_single_sided:
            raise ValueError("victim row has fewer than two neighbours")
        pair = neighbors[:2]
        for i in range(self.acts):
            yield pair[i % len(pair)]


@dataclass(frozen=True)
class NSided(AttackPattern):
    """Round-robin over the ``sides`` nearest physical neighbours of a
    victim (N-sided hammering; 2 reduces to double-sided order)."""

    victim_row: int
    sides: int
    acts: int

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        if self.sides < 1:
            raise ValueError("need at least one side")
        radius = (self.sides + 1) // 2
        aggressors = ctx.mapping.physical_neighbors(
            self.victim_row, blast_radius=radius)[:self.sides]
        if not aggressors:
            raise ValueError("victim row has no physical neighbours")
        cycle = itertools.cycle(aggressors)
        for _ in range(self.acts):
            yield next(cycle)


@dataclass(frozen=True)
class HalfDouble(AttackPattern):
    """Half-Double: heavy far (distance-2) hammering plus occasional
    near (distance-1) accesses that transport the disturbance inward.
    ``far_acts_per_near`` is the far:near activation ratio."""

    victim_row: int
    acts: int
    far_acts_per_near: int = 8

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        if self.far_acts_per_near < 1:
            raise ValueError("far_acts_per_near must be >= 1")
        near = ctx.mapping.physical_neighbors(self.victim_row,
                                              blast_radius=1)
        both = ctx.mapping.physical_neighbors(self.victim_row,
                                              blast_radius=2)
        far = [row for row in both if row not in near]
        if not far:
            far = near  # victim hugs the edge: all pressure is near
        if not near:
            raise ValueError("victim row has no physical neighbours")
        far_cycle = itertools.cycle(far)
        near_cycle = itertools.cycle(near)
        emitted = 0
        while emitted < self.acts:
            for _ in range(min(self.far_acts_per_near,
                               self.acts - emitted)):
                yield next(far_cycle)
                emitted += 1
            if emitted < self.acts:
                yield next(near_cycle)
                emitted += 1


# ----------------------------------------------------------------------
# Tracker-starving and evasion patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Feint(AttackPattern):
    """Round-robin over ``tracker_entries + decoys`` rows so every
    count climbs in lock-step and a mitigate-max tracker always picks
    late (Table II's feinting bound; breaks TRR outright).

    ``decoys`` is required and must be >= 1: with zero decoys the
    rotation collapses to exactly the tracker's capacity, nothing is
    ever evicted, and the tracker mitigates on schedule -- that
    degenerate shape is a *benign* workload, not a feint.
    """

    tracker_entries: int
    acts: int
    decoys: int
    base_row: int = 0

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        if self.decoys < 1:
            raise ValueError(
                "feinting needs decoys >= 1: with decoys=0 the rotation "
                "fits the tracker and no longer starves it")
        count = self.tracker_entries + self.decoys
        yield from itertools.islice(
            itertools.cycle(range(self.base_row, self.base_row + count)),
            self.acts)


@dataclass(frozen=True)
class DecoyEvasion(AttackPattern):
    """Blacksmith-style TRR evasion: keep the target's table count low
    by interleaving bursts of one-hit decoys that churn the low-count
    entries.  ``seed`` is required -- the decoy sequence is part of the
    pattern's identity (and hence of a fuzz cell's cache token).
    """

    table_entries: int
    target_row: int
    acts: int
    seed: int
    burst: int = 0
    """Decoys between target activations; 0 means ``entries + 4``."""
    decoy_span: int = 0
    """Decoy row range above the target; 0 means ``10 * entries``."""

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        # Each decoy is ``randrange(span)`` drawn inline, the way
        # ``random.Random`` draws it (see ``_randbelow``).
        rng = random.Random(self.seed)
        getrandbits = rng.getrandbits
        burst = self.burst if self.burst else self.table_entries + 4
        span = self.decoy_span if self.decoy_span \
            else 10 * self.table_entries
        bits = span.bit_length()
        decoy_base = self.target_row + 1000
        emitted = 0
        while emitted < self.acts:
            yield self.target_row
            emitted += 1
            decoys = min(burst, self.acts - emitted)
            if decoys > 0 and span < 1:
                rng.randrange(span)  # randrange's own empty-range error
            for _ in range(decoys):
                offset = getrandbits(bits)
                while offset >= span:
                    offset = getrandbits(bits)
                yield decoy_base + offset
                emitted += 1


@dataclass(frozen=True)
class RefreshSyncBurst(AttackPattern):
    """Phoenix-style refresh-synchronized hammering: per tREFI, land
    ``reads_per_trefi`` aggressor activations, then pad the rest of the
    interval with one-hit sync decoys so the next burst realigns with
    the following REF (the ``--reads-per-trefi``/``--self-sync-cycles``
    knobs of the Phoenix PoC).
    """

    aggressors: Tuple[int, ...]
    reads_per_trefi: int
    acts: int
    seed: int
    sync_acts: int = 0
    """Sync-filler ACTs per interval; 0 pads to the full tREFI budget."""

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        if not self.aggressors:
            raise ValueError("need at least one aggressor row")
        if self.reads_per_trefi < 1:
            raise ValueError("reads_per_trefi must be >= 1")
        # Each filler is ``randrange(4096)`` drawn inline, the way
        # ``random.Random`` draws it: 13 bits, redrawn while >= 4096.
        getrandbits = random.Random(self.seed).getrandbits
        filler = self.sync_acts if self.sync_acts \
            else max(0, ctx.acts_per_trefi - self.reads_per_trefi)
        decoy_base = max(self.aggressors) + 1000
        cycle = itertools.cycle(self.aggressors)
        emitted = 0
        while emitted < self.acts:
            for _ in range(min(self.reads_per_trefi,
                               self.acts - emitted)):
                yield next(cycle)
                emitted += 1
            for _ in range(min(filler, self.acts - emitted)):
                offset = getrandbits(13)
                while offset >= 4096:
                    offset = getrandbits(13)
                yield decoy_base + offset
                emitted += 1


@dataclass(frozen=True)
class Sequence(AttackPattern):
    """Concatenate patterns into one stream (phased attacks: prime
    with one shape, exploit with another)."""

    parts: Tuple[AttackPattern, ...]

    def rows(self, ctx: CompileContext) -> Iterator[int]:
        for part in self.parts:
            for row in part.rows(ctx):
                yield row


# ----------------------------------------------------------------------
# The paper's fixed attack set, as DSL instances
# ----------------------------------------------------------------------
def paper_attack_set(acts: int, tracker_entries: int = 28,
                     victim_row: int = 1000
                     ) -> Dict[str, AttackPattern]:
    """The fixed attack vocabulary the security exhibits always ran,
    now as pattern specs (the fuzzer's reference set to beat)."""
    return {
        "double-sided": DoubleSided(victim_row=victim_row, acts=acts),
        "focused": RowCycle(row_list=(victim_row,), acts=acts),
        "feinting": Feint(tracker_entries=tracker_entries, acts=acts,
                          decoys=max(1, tracker_entries // 8)),
        "trr-evasion": DecoyEvasion(table_entries=tracker_entries,
                                    target_row=victim_row, acts=acts,
                                    seed=7),
    }


PatternFactory = Callable[[int], AttackPattern]

__all__ = [
    "AttackPattern",
    "AttackWorkload",
    "CompileContext",
    "DecoyEvasion",
    "DoubleSided",
    "Feint",
    "HalfDouble",
    "NSided",
    "PatternFactory",
    "RefreshSyncBurst",
    "RowCycle",
    "Sequence",
    "paper_attack_set",
]
