"""Adversarial activation patterns from the paper.

Two forms are provided for each pattern:

- *streams* -- bare ``(row)`` iterators for driving a tracker directly
  in security tests (no timing model needed);
- *trace factories* -- :class:`repro.cpu.trace.TraceEntry` iterators for
  full-system runs (the Table XI performance attack).

Patterns:

- :func:`double_sided_attack_stream` -- the classic sandwich: hammer the
  two physical neighbours of a victim row.
- :func:`feinting_attack_stream` -- round-robin over slightly more rows
  than a counter tracker can hold, the pattern that defines Mithril's
  tolerated threshold (Table II) and breaks TRR.
- :func:`performance_attack_trace` -- Figure 12's kernel: prime one RCT
  region past FTH with a circular pattern of K rows, then keep
  hammering so every MINT window produces a selection and an ALERT.

The stream generators are thin wrappers over the declarative pattern
specs in :mod:`repro.workloads.patterns` -- one attack vocabulary for
the fixed paper set, the security tests, and the parameter fuzzer.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.cpu.trace import ChunkSource, TraceEntry, chunk_entries
from repro.dram.mapping import RowToSubarrayMapping
from repro.params import SystemConfig, ns
from repro.workloads.patterns import (
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    Feint,
)


def double_sided_attack_stream(victim_row: int,
                               mapping: RowToSubarrayMapping,
                               acts: int,
                               allow_single_sided: bool = True
                               ) -> Iterator[int]:
    """Alternate activations of the victim's two physical neighbours.

    A victim at a subarray edge has only one physical neighbour; by
    default the stream degrades to single-sided hammering of that
    neighbour (fuzzers pick victims uniformly, so edge rows must not
    crash the sweep).  Pass ``allow_single_sided=False`` to get the
    strict behaviour -- a ``ValueError`` for edge victims.
    """
    pattern = DoubleSided(victim_row=victim_row, acts=acts,
                          allow_single_sided=allow_single_sided)
    return pattern.rows(CompileContext.make(mapping=mapping))


def feinting_attack_stream(tracker_entries: int, acts: int,
                           base_row: int = 0,
                           decoys: Optional[int] = None) -> Iterator[int]:
    """Round-robin over ``entries + decoys`` rows to starve a counter
    tracker: every row's count rises in lock-step, so the mitigate-max
    policy lets each row climb as high as possible before being picked.

    ``decoys`` defaults to ``max(1, entries // 8)`` and must be >= 1:
    with ``decoys=0`` the rotation collapses to exactly the tracker's
    capacity, nothing is evicted, and the "attack" no longer starves
    the tracker -- that degenerate shape raises ``ValueError`` instead
    of silently measuring a benign workload.
    """
    pattern = Feint(tracker_entries=tracker_entries, acts=acts,
                    decoys=(decoys if decoys is not None
                            else max(1, tracker_entries // 8)),
                    base_row=base_row)
    return pattern.rows(CompileContext.make())


def trr_evasion_pattern(table_entries: int, target_row: int,
                        acts: int, seed: int) -> Iterator[int]:
    """Blacksmith-style pattern: keep the target's count low in the TRR
    table by interleaving bursts of one-hit decoys that churn the
    table's low-count entries and keep the target looking cold when it
    is re-inserted.

    ``seed`` is required: the decoy sequence is part of the pattern's
    identity, so two cells of a parameter sweep with different seeds
    must hash -- and cache -- differently.  (The old signature hid a
    ``random.Random(7)`` default that silently shared one decoy
    sequence across every caller.)
    """
    pattern = DecoyEvasion(table_entries=table_entries,
                           target_row=target_row, acts=acts, seed=seed)
    return pattern.rows(CompileContext.make())


def performance_attack_trace(config: SystemConfig,
                             k_rows: int,
                             bank: int = 0,
                             subchannel: int = 0,
                             region_base_row: int = 0,
                             row_stride: int = 1) -> Iterator[TraceEntry]:
    """Figure 12's DoS kernel as a core trace.

    Continuously activates a circular pattern of ``k_rows`` distinct
    rows mapping to the same RCT region, back-to-back (zero compute):
    the region primes past FTH quickly, after which every escaping ACT
    participates in MINT and ALERTs fire at the maximum sustainable
    rate.  ``row_stride`` lets callers follow the row-to-subarray
    mapping so all K rows land in one region.
    """
    if k_rows < 1:
        raise ValueError("need at least one row")
    rows = [region_base_row + i * row_stride for i in range(k_rows)]
    compute = ns(0.25)
    for row in itertools.cycle(rows):
        yield TraceEntry(compute_ps=compute, instructions=1,
                         subchannel=subchannel, bank=bank, row=row)


class AttackWorkload:
    """Adversarial trace factories as one WorkloadSource.

    Assigns each attacking core its own trace-factory callable (for
    example :func:`performance_attack_trace` wrapped in a lambda); cores
    without an entry idle for the window.  This is how the Table XI
    attacker-plus-victims experiments drive the full timing model
    through the same :class:`repro.workloads.WorkloadSource` seam the
    benign workloads use.
    """

    def __init__(self, per_core: Dict[
            int, Callable[[], Iterable[TraceEntry]]],
            mlp: int = 1) -> None:
        self._per_core = dict(per_core)
        self.mlp = mlp

    def trace(self, core_id: int) -> Iterator[TraceEntry]:
        """One core's attack trace (empty for non-attacking cores)."""
        factory = self._per_core.get(core_id)
        if factory is None:
            return iter(())
        return iter(factory())

    def chunk_source(self, core_id: int) -> ChunkSource:
        """The chunked trace wrapped for :class:`repro.cpu.core.Core`."""
        return chunk_entries(self.trace(core_id))

    def trace_factory(self) -> Callable[[int], ChunkSource]:
        """``core_id -> trace`` callable for ``MultiCoreSystem``."""
        return self.chunk_source
