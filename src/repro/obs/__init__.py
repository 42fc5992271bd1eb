"""``repro.obs``: structured observability for the simulation kernel.

Four sinks (see ``docs/observability.md``), each a class plus one
module-global ``_ACTIVE`` slot that holds the installed instance or
``None``:

- :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  fixed-bucket histograms the hot layers are instrumented with.
- :mod:`repro.obs.trace` -- a bounded ring buffer of typed events
  (ACT/REF/RFM/ALERT/stall/mitigation) with picosecond timestamps.
- :mod:`repro.obs.spans` -- wall-clock spans over batch execution
  (one per ``run_many``, per cell with its disposition, per kernel
  run) on the same bounded ring, with a live progress line in
  :mod:`repro.obs.progress`.
- :mod:`repro.obs.profile` -- the kernel profile behind ``--profile``:
  per-phase seconds and throughput counts.

:mod:`repro.obs.export` writes JSONL and Chrome trace-event files, so
a run opens directly in Perfetto with per-bank kernel lanes and
session/worker span tracks.

This package makes every decision the sinks share, from one table
(:data:`SINKS`): :func:`collecting` installs any of them over a
``with`` block and folds each into the enclosing one on exit,
:func:`suppressed` hides them all, :func:`requested` names the ones
that are on, and :func:`shipment`, :func:`absorb`, :func:`replay` and
:func:`satisfies` are what a session needs to carry them across
worker processes and its result cache.  :func:`span` records a block
on whichever span recorder is installed.

Everything is off by default and costs one ``None`` check per event
when off.  Turn collection on with the ``REPRO_METRICS`` /
``REPRO_TRACE`` / ``REPRO_SPANS`` environment knobs, the CLI's
``--metrics`` / ``--trace-out`` / ``--profile`` flags, or
programmatically::

    from repro.obs import collecting
    from repro.sim import simulate, mirza_setup
    from repro.params import SimScale

    with collecting("metrics", "trace") as col:
        simulate("tc", mirza_setup(1000), SimScale(512))
    print(col.metrics.snapshot()["abo.alerts"])
    col.write_chrome_trace("trace.json")

Collection binds at system construction (metric objects are prefetched
into the hot classes), so enter the scope *before* building the system
-- :func:`repro.sim.runner.simulate` handles this for you and attaches
a snapshot to its :class:`~repro.cpu.system.SimResult`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import ModuleType
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.obs import metrics, profile, spans, trace
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
from repro.obs.profile import KernelProfile
from repro.obs.report import render_metrics_report
from repro.obs.spans import SPAN_NAMES, SpanRecorder
from repro.obs.trace import CHANNEL_LANE, EVENT_NAMES, Ring, TraceBuffer

_TRUTHY = ("1", "true", "yes", "on")


def _trace_limit() -> int:
    """A new trace buffer's capacity: the enclosing buffer's, else
    ``REPRO_TRACE_LIMIT``, else :data:`~repro.obs.trace.DEFAULT_LIMIT`."""
    if trace._ACTIVE is not None:
        return trace._ACTIVE.limit
    try:
        value = int(os.environ.get("REPRO_TRACE_LIMIT", "").strip())
    except ValueError:
        return trace.DEFAULT_LIMIT
    return value if value >= 1 else trace.DEFAULT_LIMIT


class Sink(NamedTuple):
    """One sink kind.  ``slot`` is the module whose ``_ACTIVE`` holds
    the installed sink, ``env`` the ``REPRO_*`` switch that turns it on
    (``None``: only a scope does), and ``field`` the
    :class:`~repro.cpu.system.SimResult` field a kernel run's contents
    ride on (``None``: results do not carry it); ``wall_clock`` marks
    contents a cached result does not replay.  ``new`` makes a sink
    (given a trace capacity or ``None``), ``dump`` reads its contents
    as a JSON-able payload, and ``load`` folds a payload into a sink."""

    slot: ModuleType
    env: Optional[str]
    field: Optional[str]
    wall_clock: bool
    new: Callable[[Optional[int]], Any]
    dump: Callable[[Any], Any]
    load: Callable[[Any, Any], None]


SINKS: Dict[str, Sink] = {
    "metrics": Sink(metrics, "REPRO_METRICS", "metrics", False,
                    lambda limit: MetricsRegistry(),
                    MetricsRegistry.snapshot,
                    MetricsRegistry.merge_snapshot),
    "trace": Sink(trace, "REPRO_TRACE", "trace_events", False,
                  lambda limit: TraceBuffer(limit or _trace_limit()),
                  TraceBuffer.as_list, TraceBuffer.extend),
    "spans": Sink(spans, "REPRO_SPANS", "spans", True,
                  lambda limit: SpanRecorder(),
                  SpanRecorder.as_list, SpanRecorder.extend),
    "profile": Sink(profile, None, None, True,
                    lambda limit: KernelProfile(),
                    KernelProfile.to_dict, KernelProfile.merge),
}
"""The four sink kinds by name, the names :func:`collecting` takes."""

CARRIED: FrozenSet[str] = frozenset(
    name for name, sink in SINKS.items() if sink.field)
"""The kinds a kernel run's result carries: while any is on, every
run collects it and no shared baseline pass serves a cell (it would
hand the baseline's contents to every rider)."""


class Collection:
    """What :func:`collecting` yields: one attribute per sink kind, the
    scope's sink or ``None`` for a kind it does not collect."""

    __slots__ = tuple(SINKS)

    def __init__(self, sinks: Dict[str, Any]) -> None:
        for name in SINKS:
            setattr(self, name, sinks.get(name))

    def dumps(self) -> Dict[str, Any]:
        """Each collected kind's contents, by kind (what a pool worker
        ships back for :func:`absorb`)."""
        return {name: sink.dump(getattr(self, name))
                for name, sink in SINKS.items()
                if getattr(self, name) is not None}

    def attach(self, result: Any) -> None:
        """Set each collected kind's result field on ``result``."""
        for name, sink in SINKS.items():
            if sink.field and getattr(self, name) is not None:
                setattr(result, sink.field, sink.dump(getattr(self, name)))

    def write_chrome_trace(self, target: Union[str, IO[str]]) -> int:
        """Export the collected events and spans for Perfetto; returns
        the event count."""
        return write_chrome_trace(
            self.trace.as_list() if self.trace is not None else [],
            target,
            spans=self.spans.as_list() if self.spans is not None
            else None)

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Export the collected events as JSON-lines; returns count."""
        return write_jsonl(
            self.trace.as_list() if self.trace is not None else [],
            target)


def _install(sink: Sink, value: Any) -> Any:
    """Put ``value`` in ``sink``'s slot; returns what was there."""
    previous = sink.slot._ACTIVE
    sink.slot._ACTIVE = value
    return previous


@contextmanager
def collecting(*kinds: str, trace_limit: Optional[int] = None
               ) -> Iterator[Collection]:
    """Install a fresh sink of each named kind (``"metrics"``,
    ``"trace"``, ``"spans"``, ``"profile"``) over a ``with`` block.

    On exit each slot gets its previous sink back, and that sink, if
    any, folds in what the scoped one collected: nested scopes
    aggregate outward, which is how per-``simulate`` collection feeds
    a CLI- or session-wide view.  A block that raises folds nothing,
    as a pool job that raises ships nothing back.  ``trace_limit``
    caps a scoped trace buffer (default: the enclosing buffer's
    capacity, else ``REPRO_TRACE_LIMIT``, else 200 000 events).
    """
    scoped = {name: SINKS[name].new(trace_limit) for name in kinds}
    previous = {name: _install(SINKS[name], value)
                for name, value in scoped.items()}
    try:
        yield Collection(scoped)
    finally:
        for name in scoped:
            _install(SINKS[name], previous[name])
    for name, value in scoped.items():
        outer = previous[name]
        if outer is not None:
            SINKS[name].load(outer, SINKS[name].dump(value))
            if isinstance(value, Ring):
                outer.dropped += value.dropped


@contextmanager
def suppressed() -> Iterator[None]:
    """Scope with *no* sinks installed, regardless of the caller's.

    Used around work that must never be observed -- e.g. calibration
    probes inside :func:`repro.sim.runner.simulate`, which would
    otherwise bind to an enclosing registry, or count as kernel runs
    in an enclosing ``--profile``, and skew its totals.
    """
    previous = {name: _install(sink, None)
                for name, sink in SINKS.items()}
    try:
        yield
    finally:
        for name, sink in SINKS.items():
            _install(sink, previous[name])


@contextmanager
def span(track: str, name: str,
         meta: Optional[Dict] = None) -> Iterator[Dict]:
    """Record the ``with`` block as one span on the installed recorder
    (see :meth:`SpanRecorder.span`); with none installed, the block
    runs unrecorded and its meta dict is thrown away."""
    recorder = spans._ACTIVE
    if recorder is None:
        yield {}
        return
    with recorder.span(track, name, meta) as attrs:
        yield attrs


def requested() -> FrozenSet[str]:
    """The kinds that are on: each one installed in this process, and
    each one whose ``REPRO_*`` switch is set."""
    return frozenset(
        name for name, sink in SINKS.items()
        if sink.slot._ACTIVE is not None
        or (sink.env is not None
            and os.environ.get(sink.env, "").strip().lower() in _TRUTHY))


def shipment() -> Tuple[FrozenSet[str], Optional[int]]:
    """What a pool worker needs to collect what this process asked
    for: the requested kinds and the installed trace buffer's capacity
    (``None`` without one).  The worker collects over its job with
    ``collecting(*kinds, trace_limit=limit)`` and ships back
    :meth:`Collection.dumps` for :func:`absorb`."""
    buffer = trace._ACTIVE
    return requested(), buffer.limit if buffer is not None else None


def absorb(dumps: Dict[str, Any]) -> None:
    """Fold dumped contents (kind -> payload, as
    :meth:`Collection.dumps` returns them) into the installed sinks."""
    for name, payload in dumps.items():
        sink = SINKS[name]
        if sink.slot._ACTIVE is not None and payload:
            sink.load(sink.slot._ACTIVE, payload)


def replay(result: Any) -> None:
    """Fold a cached result's simulated-time contents (its metrics and
    kernel events, not its wall-clock spans) into the installed sinks,
    as if it had just run."""
    absorb({name: getattr(result, sink.field, None)
            for name, sink in SINKS.items()
            if sink.field and not sink.wall_clock})


def satisfies(result: Any) -> bool:
    """False when ``result`` lacks the contents of a requested kind it
    would carry: it was cached before that kind was on, and serving it
    would silently drop them."""
    return all(getattr(result, SINKS[name].field, True) is not None
               for name in requested() & CARRIED)


__all__ = [
    "CARRIED",
    "CHANNEL_LANE",
    "Collection",
    "Counter",
    "EVENT_NAMES",
    "Gauge",
    "Histogram",
    "KernelProfile",
    "MetricsRegistry",
    "Ring",
    "SINKS",
    "SPAN_NAMES",
    "Sink",
    "SpanRecorder",
    "TraceBuffer",
    "absorb",
    "chrome_span_events",
    "chrome_trace_events",
    "collecting",
    "merge_snapshots",
    "metric_key",
    "read_jsonl",
    "render_metrics_report",
    "replay",
    "requested",
    "sanitize_span_records",
    "satisfies",
    "shipment",
    "span",
    "split_key",
    "suppressed",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
