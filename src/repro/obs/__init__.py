"""``repro.obs``: structured observability for the simulation kernel.

Four cooperating pieces (see ``docs/observability.md``):

- :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  fixed-bucket histograms the hot layers are instrumented with.
- :mod:`repro.obs.trace` -- a bounded ring buffer of typed events
  (ACT/REF/RFM/ALERT/stall/mitigation) with picosecond timestamps.
- :mod:`repro.obs.spans` -- wall-clock spans over batch execution
  (one per ``run_many``, per cell with its disposition, per kernel
  run), with a live progress line in :mod:`repro.obs.progress`.
- :mod:`repro.obs.export` -- JSONL and Chrome trace-event exporters,
  so a run opens directly in Perfetto with per-bank kernel lanes and
  session/worker span tracks.

Everything is off by default and costs one ``None`` check per event
when off.  Turn collection on with the ``REPRO_METRICS`` /
``REPRO_TRACE`` environment knobs, the CLI's ``--metrics`` /
``--trace-out`` flags, or programmatically::

    from repro.obs import collecting
    from repro.sim import simulate, mirza_setup
    from repro.params import SimScale

    with collecting(metrics=True, trace=True) as col:
        simulate("tc", mirza_setup(1000), SimScale(512))
    print(col.metrics.snapshot()["abo.alerts"])
    col.write_chrome_trace("trace.json")

Collection binds at system construction (metric objects are prefetched
into the hot classes), so enter the scope *before* building the system
-- :func:`repro.sim.runner.simulate` handles this for you and attaches
a snapshot to its :class:`~repro.cpu.system.SimResult`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union, IO

from repro import _profile
from repro.obs import metrics as _metrics_mod
from repro.obs import spans as _spans_mod
from repro.obs import trace as _trace_mod
from repro.obs.export import (
    chrome_span_events,
    chrome_trace_events,
    read_jsonl,
    sanitize_span_records,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metric_key,
    split_key,
)
from repro.obs.report import render_metrics_report
from repro.obs.spans import SPAN_NAMES, SpanRecorder
from repro.obs.trace import CHANNEL_LANE, EVENT_NAMES, TraceBuffer


def metrics_requested() -> bool:
    """True when metrics collection is installed or env-enabled."""
    return _metrics_mod.requested()


def trace_requested() -> bool:
    """True when event tracing is installed or env-enabled."""
    return _trace_mod.requested()


def spans_requested() -> bool:
    """True when span recording is installed or env-enabled."""
    return _spans_mod.requested()


class Collection:
    """Handle yielded by :func:`collecting`: the scoped sinks."""

    __slots__ = ("metrics", "trace", "spans")

    def __init__(self, metrics: Optional[MetricsRegistry],
                 trace: Optional[TraceBuffer],
                 spans: Optional[SpanRecorder] = None) -> None:
        self.metrics = metrics
        self.trace = trace
        self.spans = spans

    def metrics_snapshot(self) -> Optional[Dict[str, Dict]]:
        """The collected metrics (``None`` when metrics were off)."""
        return self.metrics.snapshot() if self.metrics is not None \
            else None

    def trace_events(self) -> Optional[List[List]]:
        """The collected events (``None`` when tracing was off)."""
        return self.trace.as_list() if self.trace is not None else None

    def spans_list(self) -> Optional[List[List]]:
        """The recorded spans (``None`` when spans were off)."""
        return self.spans.as_list() if self.spans is not None else None

    def write_chrome_trace(self, target: Union[str, IO[str]]) -> int:
        """Export the collected events for Perfetto; returns count."""
        return write_chrome_trace(self.trace_events() or [], target,
                                  spans=self.spans_list())

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Export the collected events as JSON-lines; returns count."""
        return write_jsonl(self.trace_events() or [], target)


@contextmanager
def suppressed() -> Iterator[None]:
    """Scope with *no* sinks installed, regardless of the caller's.

    Used around work that must never be observed -- e.g. calibration
    probes inside :func:`repro.sim.runner.simulate`, which would
    otherwise bind to an enclosing registry, or count as kernel runs
    in an enclosing ``--profile``, and skew its totals.
    """
    prev_registry = _metrics_mod.install(None)
    prev_buffer = _trace_mod.install(None)
    prev_spans = _spans_mod.install(None)
    prev_profile = _profile.install(None)
    try:
        yield
    finally:
        _metrics_mod.install(prev_registry)
        _trace_mod.install(prev_buffer)
        _spans_mod.install(prev_spans)
        _profile.install(prev_profile)


@contextmanager
def collecting(metrics: bool = True, trace: bool = False,
               trace_limit: Optional[int] = None,
               spans: bool = False) -> Iterator[Collection]:
    """Scope metrics/trace/span collection over a ``with`` block.

    Nested scopes aggregate outward: a child scope's snapshot/events/
    spans are merged into the enclosing scope's sinks on exit, which is
    how per-``simulate`` collection feeds a CLI- or session-wide view.
    """
    registry = MetricsRegistry() if metrics else None
    buffer = TraceBuffer(
        trace_limit if trace_limit is not None
        else _trace_mod.limit_from_env()) if trace else None
    recorder = SpanRecorder() if spans else None
    prev_registry = _metrics_mod.install(registry) if metrics else None
    prev_buffer = _trace_mod.install(buffer) if trace else None
    prev_spans = _spans_mod.install(recorder) if spans else None
    try:
        yield Collection(registry, buffer, recorder)
    finally:
        if metrics:
            _metrics_mod.install(prev_registry)
            if prev_registry is not None:
                prev_registry.merge_snapshot(registry.snapshot())
        if trace:
            _trace_mod.install(prev_buffer)
            if prev_buffer is not None:
                prev_buffer.extend(buffer.as_list())
                prev_buffer.dropped += buffer.dropped
        if spans:
            _spans_mod.install(prev_spans)
            if prev_spans is not None:
                prev_spans.extend(recorder.as_list())
                prev_spans.dropped += recorder.dropped


__all__ = [
    "CHANNEL_LANE",
    "Collection",
    "Counter",
    "EVENT_NAMES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_NAMES",
    "SpanRecorder",
    "TraceBuffer",
    "chrome_span_events",
    "chrome_trace_events",
    "collecting",
    "merge_snapshots",
    "metric_key",
    "metrics_requested",
    "read_jsonl",
    "render_metrics_report",
    "sanitize_span_records",
    "spans_requested",
    "split_key",
    "suppressed",
    "trace_requested",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
