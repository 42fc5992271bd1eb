"""DDR4-style Targeted Row Refresh: a small, breakable counter table.

Reverse engineering showed DDR4 TRR trackers hold 4-28 entries per bank
(Section X).  We model the common "capture the most-activated rows"
shape: a table of (row, count); an activation increments its row's entry
or claims a free/minimum slot (found through a
:class:`~repro.mitigations.minheap.MinCountHeap`, not a scan).  One
aggressor is mitigated per ``refs_per_mitigation`` REF commands
(proactive, borrowing REF time).

TRR is **insecure**: patterns with more decoy rows than table entries
(Blacksmith/TRRespass-style) evict the true aggressor, which the
security tests demonstrate by driving a
:class:`repro.workloads.patterns.DecoyEvasion` pattern against it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.mitigations.minheap import MinCountHeap


class TrrTracker(BankTracker):
    """A 28-entry activation-count table mitigating under REF."""

    name = "trr"

    def __init__(self, entries: int = 28, refs_per_mitigation: int = 4,
                 mitigation_threshold: int = 32) -> None:
        if entries < 1:
            raise ValueError("need at least one table entry")
        self.entries = entries
        self.refs_per_mitigation = refs_per_mitigation
        self.mitigation_threshold = mitigation_threshold
        self._table: Dict[int, int] = {}
        self._index = MinCountHeap(self._table, entries)
        self._refs_seen = 0

    def on_activate(self, row: int, now_ps: int) -> None:
        table = self._table
        if row in table:
            table[row] += 1
            return
        if len(table) < self.entries:
            self._index.insert(row, 1)
            return
        # Replace the minimum (count, row) entry: the classic
        # exploitable move.
        self._index.evict_minimum(row, 1)

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
        self._index.remove(row)
        return [row]
