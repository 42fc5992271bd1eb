"""Trace format shared by workload generators and the core model.

A trace is an iterator of :class:`TraceEntry` -- one entry per LLC miss
(DRAM request).  Entries carry the *compute time* separating this miss
from the previous one (picoseconds of useful work at full issue rate)
and the instruction count that work represents, so IPC can be reported
without simulating individual instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

EntryTuple = Tuple[int, int, int, int, int]
"""A trace entry as a plain tuple, in :class:`TraceEntry` field order:
``(compute_ps, instructions, subchannel, bank, row)``.  The hot run
loop moves entries in this form (``TraceEntry(*tup)`` round-trips)."""


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One DRAM request in program order."""

    compute_ps: int
    """Compute time since the previous miss (ps at full issue width)."""

    instructions: int
    """Instructions retired between the previous miss and this one."""

    subchannel: int
    bank: int
    row: int


class ChunkSource:
    """A trace delivered as preformed chunks of :data:`EntryTuple`.

    Workload generators that can emit entries in bulk wrap their chunk
    generator in this class; :class:`repro.cpu.core.Core` detects the
    ``next_chunk`` attribute and consumes tuples straight out of the
    chunk lists, skipping per-entry object construction entirely.
    """

    __slots__ = ("_gen",)

    def __init__(self, chunks: Iterator[List[EntryTuple]]) -> None:
        self._gen = chunks

    def next_chunk(self) -> Optional[List[EntryTuple]]:
        """The next non-empty chunk, or ``None`` when the trace ends."""
        return next(self._gen, None)

    def __iter__(self) -> Iterator[TraceEntry]:
        """Entry-at-a-time view (compat with iterator consumers)."""
        for chunk in self._gen:
            for tup in chunk:
                yield TraceEntry(*tup)


def chunk_entries(trace: Iterable[TraceEntry],
                  size: int = 256) -> ChunkSource:
    """Adapt an entry-at-a-time trace into a :class:`ChunkSource`.

    Pulls up to ``size`` entries ahead of the consumer; traces must not
    depend on simulation state between pulls (all in-repo generators are
    pure functions of their own RNG, so prefetch is safe).
    """

    def generate() -> Iterator[List[EntryTuple]]:
        it = iter(trace)
        while True:
            chunk: List[EntryTuple] = []
            append = chunk.append
            for entry in it:
                append((entry.compute_ps, entry.instructions,
                        entry.subchannel, entry.bank, entry.row))
                if len(chunk) >= size:
                    break
            if not chunk:
                return
            yield chunk

    return ChunkSource(generate())


def cyclic(entries: List[TraceEntry]) -> Iterator[TraceEntry]:
    """Repeat a finite trace forever (rate-mode windows)."""
    if not entries:
        raise ValueError("cannot cycle an empty trace")

    def generate() -> Iterator[TraceEntry]:
        while True:
            for entry in entries:
                yield entry
    return generate()


def take(trace: Iterable[TraceEntry], n: int) -> List[TraceEntry]:
    """Materialise the first ``n`` entries of a trace."""
    out: List[TraceEntry] = []
    for entry in trace:
        out.append(entry)
        if len(out) >= n:
            break
    return out
