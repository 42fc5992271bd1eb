"""The structured event trace: a bounded ring buffer of typed events.

An event is a plain 5-element list::

    [ts_ps, ph, name, subch, bank]

``ts_ps``
    Simulated time in integer picoseconds (never wall clock, so traces
    are deterministic and byte-identical across processes).
``ph``
    The phase, Chrome-trace style: ``"I"`` for an instant event,
    ``"B"``/``"E"`` for the begin/end of a window (ABO stalls, REF
    blackouts, RFM stalls).
``name``
    The event type -- see :data:`EVENT_NAMES` for the taxonomy.
``subch`` / ``bank``
    The lane.  ``bank = -1`` means a channel-wide event (stalls,
    ALERTs, REF); Perfetto renders each (subchannel, bank) pair as its
    own track.

The buffer is a ``deque`` with a hard length cap (``REPRO_TRACE_LIMIT``
or :data:`DEFAULT_LIMIT`): a long run keeps the *newest* events and
counts what it dropped, so tracing can stay on for arbitrarily large
windows without unbounded memory.  Like the metrics registry, one
module-global slot (``_ACTIVE``) keeps the off-path to a single
``None`` check, and hot classes prefetch the buffer at construction.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from typing import Deque, Iterator, List, Optional

_TRUTHY = ("1", "true", "yes", "on")

DEFAULT_LIMIT = 200_000
"""Default ring-buffer capacity (events)."""

CHANNEL_LANE = -1
"""``bank`` value for channel-wide events (stalls, ALERT, REF)."""

EVENT_NAMES = {
    "ACT": "row activation issued (instant, bank lane)",
    "REF": "demand-refresh blackout (B/E window, channel lane)",
    "RFM": "refresh-management stall (B/E window, bank lane)",
    "DRFM": "directed-RFM batch stall (B/E window, channel lane)",
    "ALERT": "device asserted ALERT (instant, channel lane)",
    "STALL": "ABO stall window (B/E window, channel lane)",
    "MITIGATE": "tracker mitigated an aggressor (instant, bank lane)",
    "FLUSH": "array backend landed a deferred ACT run "
             "(B/E window -- or instant for one-ACT runs -- bank lane)",
}
"""The event taxonomy: name -> meaning (see docs/observability.md)."""


class TraceBuffer:
    """Bounded ring of events; appends drop the oldest when full."""

    __slots__ = ("events", "limit", "dropped")

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("trace limit must be >= 1")
        self.limit = limit
        self.events: Deque[List] = deque(maxlen=limit)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, ts_ps: int, ph: str, name: str, subch: int = 0,
             bank: int = CHANNEL_LANE) -> None:
        """Append one event (hot path when tracing is on)."""
        events = self.events
        if len(events) == self.limit:
            self.dropped += 1
        events.append([ts_ps, ph, name, subch, bank])

    def instant(self, ts_ps: int, name: str, subch: int = 0,
                bank: int = CHANNEL_LANE) -> None:
        self.emit(ts_ps, "I", name, subch, bank)

    def window(self, start_ps: int, end_ps: int, name: str,
               subch: int = 0, bank: int = CHANNEL_LANE) -> None:
        """Emit a paired ``B``/``E`` window."""
        self.emit(start_ps, "B", name, subch, bank)
        self.emit(end_ps, "E", name, subch, bank)

    def extend(self, events: List[List]) -> None:
        """Fold another buffer's event list in (ring cap still applies)."""
        for event in events:
            self.emit(event[0], event[1], event[2], event[3], event[4])

    def as_list(self) -> List[List]:
        """The buffered events as a plain list (oldest first)."""
        return [list(event) for event in self.events]


_ACTIVE: Optional[TraceBuffer] = None
"""The installed trace buffer, or ``None`` (the tracing-off path)."""


def active() -> Optional[TraceBuffer]:
    """The currently-installed trace buffer, if any."""
    return _ACTIVE


def enabled_by_env() -> bool:
    """True when ``REPRO_TRACE`` asks for event tracing."""
    return os.environ.get("REPRO_TRACE", "").strip().lower() in _TRUTHY


def requested() -> bool:
    """True when a buffer is installed or the environment asks."""
    return _ACTIVE is not None or enabled_by_env()


def limit_from_env() -> int:
    """Ring capacity: ``REPRO_TRACE_LIMIT`` or :data:`DEFAULT_LIMIT`."""
    raw = os.environ.get("REPRO_TRACE_LIMIT", "").strip()
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_LIMIT
    return value if value >= 1 else DEFAULT_LIMIT


def install(buffer: Optional[TraceBuffer]) -> Optional[TraceBuffer]:
    """Install ``buffer`` as the active sink; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = buffer
    return previous


@contextmanager
def tracing(buffer: Optional[TraceBuffer] = None,
            limit: Optional[int] = None) -> Iterator[TraceBuffer]:
    """Scope a trace buffer over a ``with`` block and yield it.

    On exit the previous buffer is restored and, if there was one, the
    scoped buffer's events are folded into it (so nested collection
    scopes aggregate outward, mirroring metrics).
    """
    buf = buffer if buffer is not None else TraceBuffer(
        limit if limit is not None else limit_from_env())
    previous = install(buf)
    try:
        yield buf
    finally:
        install(previous)
        if previous is not None:
            previous.extend(buf.as_list())
            previous.dropped += buf.dropped
