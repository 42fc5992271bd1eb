"""Session-level span tracing: wall-clock spans over batch execution.

Where :mod:`repro.obs.trace` records *simulated-time* kernel events
(ACT/REF/ALERT on picosecond timestamps), this module records
*wall-clock* spans over the execution platform itself: one root span
per :meth:`~repro.sim.session.SimSession.run_many`, one child span per
cell with its disposition (``cache-hit`` / ``computed`` / ``retried``
/ ``timed-out`` / ``failed``), a workers span over the fan-out phase,
and per-job kernel spans from inside :func:`repro.sim.runner.simulate`.
They answer the questions the kernel trace cannot: where did the batch
spend its time, which cells were served from cache, which worker ran
what, and how long jobs sat queued.

A span is a plain JSON-able 5-element list::

    [track, name, start_us, dur_us, meta]

``track``
    The display lane group: :data:`TRACK_SESSION` for batch/cell spans
    (recorded parent-side), :data:`TRACK_WORKER` for execution spans
    (recorded wherever the job actually ran -- the ``meta`` carries
    the pid).
``start_us`` / ``dur_us``
    Wall-clock microseconds since the Unix epoch and span duration.
    All processes on a machine share this clock, so worker spans
    overlay the parent's timeline without translation.
``meta``
    A small JSON-able dict of attributes (disposition, attempts,
    pid, ...); exported as Chrome trace-event ``args``.

Like the metrics registry and the event trace, one module-global slot
(:data:`_ACTIVE`) keeps the off-path to a single ``None`` check, the
recorder is bounded (``REPRO_SPAN_LIMIT``), and nested
:func:`recording` scopes fold outward -- which is also how spans
shipped back from pool workers (on :class:`~repro.cpu.system.SimResult
`.spans) merge into the parent's recorder, exactly like metrics
snapshots.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from time import perf_counter, time
from typing import Deque, Dict, Iterator, List, Optional

_TRUTHY = ("1", "true", "yes", "on")

DEFAULT_LIMIT = 100_000
"""Default recorder capacity (spans)."""

TRACK_SESSION = "session"
"""Track for batch-level spans recorded by the parent session."""

TRACK_WORKER = "worker"
"""Track for execution spans recorded where the job ran."""

SPAN_NAMES = {
    "run_many": "one whole batch (root span, session track)",
    "workers": "the batch's fan-out/execution phase (session track)",
    "cell:<label>": "one unique cell, disposition in meta "
                    "(session track)",
    "kernel:event": "one simulate() kernel run, pid in meta "
                    "(worker track)",
}
"""The span taxonomy: name -> meaning (see docs/observability.md)."""


def now_us() -> float:
    """Wall-clock microseconds since the Unix epoch."""
    return time() * 1e6


class SpanRecorder:
    """Bounded list of spans; appends drop the oldest when full."""

    __slots__ = ("spans", "limit", "dropped")

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("span limit must be >= 1")
        self.limit = limit
        self.spans: Deque[List] = deque(maxlen=limit)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)

    def add(self, track: str, name: str, start_us: float,
            dur_us: float, meta: Optional[Dict] = None) -> None:
        """Append one finished span."""
        spans = self.spans
        if len(spans) == self.limit:
            self.dropped += 1
        spans.append([track, name, start_us, dur_us, meta or {}])

    @contextmanager
    def span(self, track: str, name: str,
             meta: Optional[Dict] = None) -> Iterator[Dict]:
        """Record the ``with`` block as one span; yields its meta dict
        so the body can attach attributes before the span closes."""
        attrs: Dict = dict(meta) if meta else {}
        start = now_us()
        t0 = perf_counter()
        try:
            yield attrs
        finally:
            self.add(track, name, start,
                     (perf_counter() - t0) * 1e6, attrs)

    def extend(self, spans: List[List]) -> None:
        """Fold another recorder's span list in (cap still applies)."""
        for span in spans:
            self.add(span[0], span[1], span[2], span[3], span[4])

    def as_list(self) -> List[List]:
        """The recorded spans as a plain list (oldest first)."""
        return [[s[0], s[1], s[2], s[3], dict(s[4])]
                for s in self.spans]


_ACTIVE: Optional[SpanRecorder] = None
"""The installed span recorder, or ``None`` (the spans-off path)."""


def active() -> Optional[SpanRecorder]:
    """The currently-installed span recorder, if any."""
    return _ACTIVE


def enabled_by_env() -> bool:
    """True when ``REPRO_SPANS`` asks for span recording."""
    return os.environ.get("REPRO_SPANS", "").strip().lower() in _TRUTHY


def requested() -> bool:
    """True when a recorder is installed or the environment asks."""
    return _ACTIVE is not None or enabled_by_env()


def limit_from_env() -> int:
    """Recorder capacity: ``REPRO_SPAN_LIMIT`` or :data:`DEFAULT_LIMIT`."""
    raw = os.environ.get("REPRO_SPAN_LIMIT", "").strip()
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_LIMIT
    return value if value >= 1 else DEFAULT_LIMIT


def install(recorder: Optional[SpanRecorder]
            ) -> Optional[SpanRecorder]:
    """Install ``recorder`` as the active sink; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


@contextmanager
def recording(recorder: Optional[SpanRecorder] = None,
              limit: Optional[int] = None) -> Iterator[SpanRecorder]:
    """Scope a span recorder over a ``with`` block and yield it.

    On exit the previous recorder is restored and, if there was one,
    the scoped recorder's spans are folded into it (nested collection
    scopes aggregate outward, mirroring metrics and the event trace).
    """
    rec = recorder if recorder is not None else SpanRecorder(
        limit if limit is not None else limit_from_env())
    previous = install(rec)
    try:
        yield rec
    finally:
        install(previous)
        if previous is not None:
            previous.extend(rec.as_list())
            previous.dropped += rec.dropped
