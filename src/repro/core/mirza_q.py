"""MIRZA-Q: the per-bank mitigation queue with tardiness counters.

Rows selected by MINT wait in this queue until an ALERT provides
mitigation time.  Each entry carries a *tardiness counter*: the number
of activations the buffered row has received since insertion (entries
are unique; a repeat activation increments the counter instead of
inserting a duplicate).  An ALERT must be raised when

- the queue is full (so a new selection would have nowhere to go), or
- any entry's tardiness exceeds the Queue Tardiness Threshold (QTH),
  bounding the unmitigated activations a queued row can accrue
  (Phase C of the security analysis, Section VI-A).

On ALERT the bank mitigates the entry with the **highest** tardiness
count -- this is what caps the Feinting-style Phase-D accrual at
``QTH + 2 * acts_between_alerts - 1`` (the ``Q+7`` of Figure 10).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs import metrics as _metrics


class MirzaQueue:
    """Bounded set of (row -> tardiness count) pending mitigations."""

    __slots__ = ("capacity", "qth", "_entries", "insertions",
                 "dropped_insertions", "evictions",
                 "_m_inserts", "_m_drops", "_m_evictions", "_m_occupancy")

    def __init__(self, capacity: int = 4, qth: int = 16) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if qth < 1:
            raise ValueError("QTH must be at least 1")
        self.capacity = capacity
        self.qth = qth
        self._entries: Dict[int, int] = {}
        self.insertions = 0
        self.dropped_insertions = 0
        self.evictions = 0
        reg = _metrics._ACTIVE
        if reg is not None:
            self._m_inserts = reg.counter("mirza_q.inserts")
            self._m_drops = reg.counter("mirza_q.drops")
            self._m_evictions = reg.counter("mirza_q.evictions")
            self._m_occupancy = reg.gauge("mirza_q.occupancy")
        else:
            self._m_inserts = self._m_drops = None
            self._m_evictions = self._m_occupancy = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, row: int) -> bool:
        return row in self._entries

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def tardiness(self, row: int) -> int:
        """Current tardiness count of ``row`` (0 if not queued)."""
        return self._entries.get(row, 0)

    def on_activate(self, row: int) -> bool:
        """Bump ``row``'s tardiness if queued; return True if it was."""
        if row in self._entries:
            self._entries[row] += 1
            return True
        return False

    def insert(self, row: int) -> bool:
        """Enqueue a MINT-selected row with a count of 1 (Section V-A).

        Returns False (and counts a drop) if the queue is full -- with
        ``MINT-W >= acts_between_alerts`` this never happens in steady
        state (Section V-D), and the tests assert as much.
        """
        if row in self._entries:
            self._entries[row] += 1
            return True
        if self.full:
            self.dropped_insertions += 1
            if self._m_drops is not None:
                self._m_drops.value += 1
            return False
        self._entries[row] = 1
        self.insertions += 1
        counter = self._m_inserts
        if counter is not None:
            counter.value += 1
            self._m_occupancy.set(len(self._entries))
        return True

    def wants_alert(self) -> bool:
        """True when the queue must request mitigation time."""
        entries = self._entries
        if len(entries) >= self.capacity:
            return True
        qth = self.qth
        for count in entries.values():
            if count > qth:
                return True
        return False

    def pop_max(self) -> Optional[int]:
        """Remove and return the entry with the highest tardiness."""
        if not self._entries:
            return None
        row = max(self._entries, key=lambda r: (self._entries[r], -r))
        del self._entries[row]
        self.evictions += 1
        counter = self._m_evictions
        if counter is not None:
            counter.value += 1
            self._m_occupancy.set(len(self._entries))
        return row
