"""Scan-based Mithril and TRR: the reference for the heap-indexed trackers.

They find the table minimum with an O(entries) dict scan on every
eviction: the plainest correct form of each tracker's policy.  They
serve only as the oracle that ``test_minheap.py`` compares the indexed
trackers to, step by step.
"""

from typing import List

from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.trr import TrrTracker


class ScanMithrilTracker(MithrilTracker):
    """Mithril with ``min()`` scans for the eviction victim and floor."""

    def _table_min(self) -> int:
        """The minimum over every entry; a free entry holds 0."""
        if len(self._table) < self.entries:
            return 0
        return min(self._table.values())

    def on_activate(self, row: int, now_ps: int) -> None:
        if row in self._table:
            self._table[row] += 1
            return
        if len(self._table) < self.entries:
            self._table[row] = 1
            return
        floor = self._table_min()
        victim = min(self._table, key=lambda r: (self._table[r], r))
        del self._table[victim]
        self._table[row] = floor + 1
        self.spills += 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is MitigationSlotSource.REF:
            self._refs_seen += 1
            if self._refs_seen % self.refs_per_mitigation:
                return []
        if not self._table:
            return []
        row = max(self._table,
                  key=lambda r: (self._table[r],
                                 -self._last_mitigated.get(r, -1), -r))
        self._table[row] = self._table_min()
        self._mitigation_seq += 1
        self._last_mitigated[row] = self._mitigation_seq
        return [row]


class ScanTrrTracker(TrrTracker):
    """TRR with a ``min()`` scan for the eviction victim."""

    def on_activate(self, row: int, now_ps: int) -> None:
        if row in self._table:
            self._table[row] += 1
            return
        if len(self._table) < self.entries:
            self._table[row] = 1
            return
        victim = min(self._table, key=lambda r: (self._table[r], r))
        del self._table[victim]
        self._table[row] = 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is not MitigationSlotSource.REF:
            return []
        self._refs_seen += 1
        if self._refs_seen % self.refs_per_mitigation:
            return []
        if not self._table:
            return []
        row = max(self._table, key=lambda r: (self._table[r], -r))
        if self._table[row] < self.mitigation_threshold:
            return []
        del self._table[row]
        return [row]
