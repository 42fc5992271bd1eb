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
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, Iterator, List, Optional, Tuple

from repro import _profile
from repro.cpu.trace import EntryTuple, TraceEntry, chunk_entries
from repro.obs import metrics as _metrics


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

    def pop_tuple(self) -> Tuple[int, EntryTuple]:
        """Commit to the next miss; returns ``(issue_time, entry_tuple)``.

        The entry comes back as a plain
        :data:`repro.cpu.trace.EntryTuple`.
        """
        issue = self.peek_issue_time()
        if issue is None:
            raise StopIteration("trace exhausted")
        return issue, self.commit(issue)

    def commit(self, issue: int) -> EntryTuple:
        """Issue the next miss at ``issue``; return its entry tuple.

        The run loop's hot path: ``issue`` must be what
        :meth:`peek_issue_time` returned with no call to this core in
        between, so the peek need not run again.
        """
        tup = self._buf[self._idx]
        self._idx += 1
        counter = self._m_stall_ps
        if counter is not None:
            # Time lost waiting on the MLP limit: issue beyond the point
            # the compute delay alone would have allowed.
            wait = issue - (self.clock + tup[0])
            if wait > 0:
                counter.value += wait
        outstanding = self._outstanding
        if len(outstanding) >= self.mlp:
            outstanding.popleft()
        self.clock = issue
        self.retired_instructions += tup[1]
        self.misses_issued += 1
        return tup

    def pop_request(self) -> Tuple[int, TraceEntry]:
        """Commit to issuing the next miss; returns (issue_time, entry)."""
        issue, tup = self.pop_tuple()
        return issue, TraceEntry(*tup)

    def complete(self, completion_time: int) -> None:
        """Record the DRAM completion of the just-issued miss."""
        self._outstanding.append(completion_time)
        hist = self._m_outstanding
        if hist is not None:
            hist.observe(len(self._outstanding))

    def ipc(self, window_ps: int, cycle_ps: float) -> float:
        """Instructions per cycle over a window of ``window_ps``."""
        if window_ps <= 0:
            return 0.0
        cycles = window_ps / cycle_ps
        return self.retired_instructions / cycles
