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
(:data:`_ACTIVE`) keeps the off-path to a single ``None`` check, and
the recorder is bounded (:data:`DEFAULT_LIMIT` spans) on the event
trace's :class:`~repro.obs.trace.Ring`.  :func:`repro.obs.collecting`
installs it, and nested scopes fold outward -- which is also how spans
shipped back from pool workers merge into the parent's recorder,
exactly like metrics snapshots.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter, time
from typing import Dict, Iterator, List, Optional

from repro.obs.trace import Ring

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


class SpanRecorder(Ring):
    """Bounded ring of finished spans."""

    __slots__ = ()

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        super().__init__(limit)

    def add(self, track: str, name: str, start_us: float,
            dur_us: float, meta: Optional[Dict] = None) -> None:
        """Append one finished span."""
        self.append([track, name, start_us, dur_us, meta or {}])

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

    def as_list(self) -> List[List]:
        """The recorded spans as a plain list (oldest first), each with
        its own copy of the meta dict."""
        return [[s[0], s[1], s[2], s[3], dict(s[4])] for s in self.items]


_ACTIVE: Optional[SpanRecorder] = None
"""The installed span recorder, or ``None`` (the spans-off path)."""
