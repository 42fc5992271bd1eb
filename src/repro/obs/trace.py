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

The buffer is a :class:`Ring`, a ``deque`` with a hard length cap
(``REPRO_TRACE_LIMIT`` or :data:`DEFAULT_LIMIT`): a long run keeps the
*newest* events and counts what it dropped, so tracing can stay on for
arbitrarily large windows without unbounded memory.  The span recorder
(:mod:`repro.obs.spans`) keeps its spans on the same ring.  Like the
metrics registry, one module-global slot (``_ACTIVE``) keeps the
off-path to a single ``None`` check, and hot classes prefetch the
buffer at construction; :func:`repro.obs.collecting` installs it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

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
}
"""The event taxonomy: name -> meaning (see docs/observability.md)."""


class Ring:
    """A bounded ring of plain-list records, oldest first: appending to
    a full ring drops the oldest record and counts it in ``dropped``."""

    __slots__ = ("items", "limit", "dropped")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("ring limit must be >= 1")
        self.limit = limit
        self.items: Deque[List] = deque(maxlen=limit)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.items)

    def append(self, item: List) -> None:
        """Append one record."""
        items = self.items
        if len(items) == self.limit:
            self.dropped += 1
        items.append(item)

    def extend(self, items: Iterable[List]) -> None:
        """Fold another ring's records in (the limit still applies)."""
        for item in items:
            self.append(list(item))

    def as_list(self) -> List[List]:
        """The records as a plain list of copies (oldest first)."""
        return [list(item) for item in self.items]


class TraceBuffer(Ring):
    """The kernel's event ring."""

    __slots__ = ()

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        super().__init__(limit)

    def emit(self, ts_ps: int, ph: str, name: str, subch: int = 0,
             bank: int = CHANNEL_LANE) -> None:
        """Append one event (hot path when tracing is on)."""
        events = self.items
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


_ACTIVE: Optional[TraceBuffer] = None
"""The installed trace buffer, or ``None`` (the tracing-off path)."""
