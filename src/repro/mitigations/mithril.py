"""Mithril: a Misra-Gries counter-summary tracker (HPCA 2022).

Mithril keeps ``k`` (row, counter) entries per bank using the
Misra-Gries frequent-items algorithm:

- an activation to a tracked row increments its counter;
- an activation to an untracked row claims a free entry, or, when the
  table is full, *decrements every counter by the table minimum* and
  replaces a zeroed entry (we implement the standard equivalent: adopt
  the minimum entry's count).

At each mitigation opportunity the row with the maximum counter is
mitigated and its counter reset to the table minimum (mitigating does
not licence forgetting the Misra-Gries undercount), which is 0 while
the table still has a free entry.  Because counts are sound lower
bounds with bounded undercount, Mithril is *secure* -- but needs
thousands of entries at low thresholds (4.5KB+ CAM per bank, Section
I), which is exactly the storage cost MIRZA avoids.

The eviction victim and the floor come from a
:class:`~repro.mitigations.minheap.MinCountHeap` over the table, so a
full table costs O(log k) per untracked activation, not a scan.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.mitigations.minheap import MinCountHeap


class MithrilTracker(BankTracker):
    """Misra-Gries tracker mitigating the max entry every k REFs."""

    name = "mithril"

    def __init__(self, entries: int = 2048,
                 refs_per_mitigation: int = 1) -> None:
        if entries < 1:
            raise ValueError("need at least one entry")
        self.entries = entries
        self.refs_per_mitigation = refs_per_mitigation
        self._table: Dict[int, int] = {}
        self._index = MinCountHeap(self._table, entries)
        self._last_mitigated: Dict[int, int] = {}
        self._mitigation_seq = 0
        self._refs_seen = 0
        self.spills = 0

    def on_activate(self, row: int, now_ps: int) -> None:
        table = self._table
        if row in table:
            table[row] += 1
            return
        if len(table) < self.entries:
            self._index.insert(row, 1)
            return
        # Misra-Gries replacement: the minimum (count, row) entry makes
        # way and the newcomer adopts its count + 1.  This keeps every
        # counter an upper bound on the true count while the undercount
        # stays bounded by the number of replacements.
        self._index.evict_minimum(row)
        self.spills += 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is MitigationSlotSource.REF:
            self._refs_seen += 1
            if self._refs_seen % self.refs_per_mitigation:
                return []
        table = self._table
        if not table:
            return []
        # Highest count wins; ties go to the least-recently-mitigated
        # entry so the post-mitigation reset-to-floor cannot pin the
        # selection on one row while others keep accruing.
        top = max(table.values())
        last = self._last_mitigated
        row = max([r for r, count in table.items() if count == top],
                  key=lambda r: (-last.get(r, -1), -r))
        # Reset to the table minimum rather than zero: the entry may
        # still be undercounting by up to the Misra-Gries error floor.
        # A free entry holds 0, so while one is left that minimum is 0.
        floor = self._index.minimum()[0] \
            if len(table) == self.entries else 0
        self._index.set_count(row, floor)
        self._mitigation_seq += 1
        self._last_mitigated[row] = self._mitigation_seq
        return [row]
