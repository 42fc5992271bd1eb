"""Lazy min-heap over a counter tracker's ``{row: count}`` table.

Mithril and TRR evict the minimum ``(count, row)`` entry whenever an
untracked row arrives at a full table, and Mithril also reads the
table minimum as its Misra-Gries floor.  Scanning the dict for that
costs O(entries) per activation; :class:`MinCountHeap` answers it in
amortised O(log entries) without changing a single result.

The rules, all kept inside this class:

- The tracker's dict stays the source of truth.  The heap files every
  live row under a *key* no larger than its true count, so the hot
  path -- a tracked row's ``table[row] += 1`` -- never touches the
  heap.  A stale key is re-filed only when it surfaces at the top.
- Each live row owns exactly one *canonical* heap entry: the one whose
  count equals ``_keyed[row]``.  Anything else (the old entry of a row
  that was removed or lowered) is an orphan: it is dropped when it
  surfaces and never re-filed, so duplicates cannot pile up.
- Orphans are bounded: a push that takes the heap past
  ``2 * entries + ORPHAN_SLACK`` items rebuilds it from the table, so
  the heap never holds more than ``2 * entries + 64`` items.

Exactness: when the top entry ``(c, r)`` is canonical and current
(``table[r] == c``), every other live row ``r'`` has a canonical entry
``(k', r') >= (c, r)`` with ``table[r'] >= k'``, so ``(table[r'], r')
>= (c, r)``: the top is the table's minimum ``(count, row)``, ties
broken by the lower row exactly as ``min(table, key=(count, row))``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, List, Tuple

ORPHAN_SLACK = 64
"""Heap items allowed beyond twice the table size before a rebuild;
keeps tiny tables from rebuilding on almost every push."""


class MinCountHeap:
    """Min-``(count, row)`` index over a tracker's counter dict.

    Every change other than an increment of a tracked row's count goes
    through this class; increments go straight to ``table``.
    """

    __slots__ = ("table", "_heap", "_keyed", "_limit")

    def __init__(self, table: Dict[int, int], entries: int) -> None:
        self.table = table
        self._heap: List[Tuple[int, int]] = []
        self._keyed: Dict[int, int] = {}
        self._limit = 2 * entries + ORPHAN_SLACK

    def insert(self, row: int, count: int) -> None:
        """Track the untracked ``row`` at ``count``."""
        self.table[row] = count
        self._file(row, count)

    def set_count(self, row: int, count: int) -> None:
        """Overwrite a tracked row's count (re-filed only if it drops
        below the row's key)."""
        self.table[row] = count
        if count < self._keyed[row]:
            self._file(row, count)

    def remove(self, row: int) -> None:
        """Stop tracking ``row``; its heap entry becomes an orphan."""
        del self.table[row]
        del self._keyed[row]

    def minimum(self) -> Tuple[int, int]:
        """The table's minimum ``(count, row)``; the table is non-empty."""
        heap, keyed, table = self._heap, self._keyed, self.table
        while True:
            count, row = heap[0]
            if keyed.get(row) != count:
                heappop(heap)
                continue
            actual = table[row]
            if actual == count:
                return count, row
            keyed[row] = actual
            heapreplace(heap, (actual, row))

    def evict_minimum(self, row: int, count: int) -> int:
        """Replace the minimum entry by the untracked ``row`` at
        ``count``; returns the evicted row."""
        _, victim = self.minimum()
        table, keyed = self.table, self._keyed
        del table[victim]
        del keyed[victim]
        table[row] = count
        keyed[row] = count
        heapreplace(self._heap, (count, row))
        return victim

    def _file(self, row: int, count: int) -> None:
        self._keyed[row] = count
        heappush(self._heap, (count, row))
        if len(self._heap) > self._limit:
            self._keyed = dict(self.table)
            self._heap = [(c, r) for r, c in self.table.items()]
            heapify(self._heap)
