"""MLP-limited core model.

A core consumes its trace one miss at a time.  Between misses it spends
the entry's compute time; it may have up to ``mlp`` misses outstanding
(the memory-level parallelism the ROB can extract), and when the limit
is reached it stalls until the oldest miss returns.  IPC over a window
is retired instructions divided by window length.

This is the standard first-order model for memory-bound multi-core
throughput: it reproduces the sensitivity of IPC to (a) added DRAM
latency (PRAC's inflated tRP/tRC on row conflicts) and (b) stolen DRAM
time (REF/RFM/ALERT stalls), which are the only two effects behind the
paper's slowdown numbers.

Traces arrive either entry-at-a-time (any ``Iterator[TraceEntry]``) or
pre-chunked (:class:`repro.cpu.trace.ChunkSource`); the core buffers a
chunk of plain tuples internally either way, so the hot path indexes a
list instead of resuming a generator per miss.

The core is state plus its chunk refill: the system's request loop
(:meth:`repro.cpu.system.MultiCoreSystem.drive`) commits each miss,
records its completion and computes the next issue time inline on
these slots, and calls :meth:`Core.peek_issue_time` only to start a
core and when its chunk runs out.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, Iterator, List, Optional

from repro.cpu.trace import EntryTuple, TraceEntry, chunk_entries
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile


class Core:
    """One trace-driven core."""

    __slots__ = ("core_id", "trace", "mlp", "tenant", "clock",
                 "retired_instructions", "misses_issued", "_outstanding",
                 "_chunks", "_buf", "_idx", "_m_stall_ps",
                 "_m_outstanding")

    def __init__(self, core_id: int, trace: Iterator[TraceEntry],
                 mlp: int = 8, tenant: Optional[str] = None) -> None:
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.core_id = core_id
        self.trace = trace
        self.mlp = mlp
        self.tenant = tenant
        """Tenant this core belongs to (None outside multi-tenant
        scenarios); pure identity metadata, never consulted by the
        timing model."""
        self.clock = 0
        self.retired_instructions = 0
        self.misses_issued = 0
        self._outstanding: Deque[int] = deque()
        if hasattr(trace, "next_chunk"):
            self._chunks = trace
        else:
            self._chunks = chunk_entries(trace)
        self._buf: List[EntryTuple] = []
        self._idx = 0
        reg = _metrics._ACTIVE
        self._m_stall_ps = reg.counter("cpu.stall_ps") \
            if reg is not None else None
        self._m_outstanding = reg.histogram(
            "cpu.outstanding", bounds=(1, 2, 4, 8, 16, 32)) \
            if reg is not None else None

    def _refill(self) -> bool:
        """Pull the next chunk into the buffer; False when exhausted."""
        prof = _profile._ACTIVE
        if prof is None:
            chunk = self._chunks.next_chunk()
        else:
            t0 = perf_counter()
            chunk = self._chunks.next_chunk()
            prof.trace_s += perf_counter() - t0
        if not chunk:
            return False
        self._buf = chunk
        self._idx = 0
        return True

    def peek_issue_time(self) -> Optional[int]:
        """Earliest time the next miss can issue (None when trace ends)."""
        idx = self._idx
        buf = self._buf
        if idx >= len(buf):
            if not self._refill():
                return None
            buf = self._buf
            idx = 0
        ready = self.clock + buf[idx][0]
        outstanding = self._outstanding
        if len(outstanding) >= self.mlp and outstanding[0] > ready:
            ready = outstanding[0]
        return ready

    def ipc(self, window_ps: int, cycle_ps: float) -> float:
        """Instructions per cycle over a window of ``window_ps``."""
        if window_ps <= 0:
            return 0.0
        cycles = window_ps / cycle_ps
        return self.retired_instructions / cycles
