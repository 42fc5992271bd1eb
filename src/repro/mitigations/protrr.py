"""ProTRR: principled in-DRAM target row refresh (IEEE S&P 2022).

ProTRR is the other optimal counter-based in-DRAM tracker alongside
Mithril (Figure 1a).  We implement the classic Misra-Gries
*decrement-all* variant it is built on:

- a tracked row's counter increments on activation;
- an untracked activation with a full table decrements **every**
  counter by one (claiming an entry whose counter hits zero);
- at each mitigation opportunity the maximum-counter row is refreshed
  and its entry released.

The decrement-all discipline gives the textbook Misra-Gries guarantee:
a row with true count ``n`` over a window of ``N`` activations is
tracked with counter at least ``n - N/(k+1)``, which is what makes the
tracker *principled* -- its worst case (the Feinting attack) is
analytically bounded.  The cost is the same as Mithril's: thousands of
CAM entries per bank at low thresholds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mitigations.base import BankTracker, MitigationSlotSource


class ProTrrTracker(BankTracker):
    """Misra-Gries (decrement-all) tracker, mitigate-max under REF."""

    name = "protrr"

    def __init__(self, entries: int = 2048,
                 refs_per_mitigation: int = 1) -> None:
        if entries < 1:
            raise ValueError("need at least one entry")
        self.entries = entries
        self.refs_per_mitigation = refs_per_mitigation
        self._table: Dict[int, int] = {}
        self._refs_seen = 0
        self.decrements = 0

    def on_activate(self, row: int, now_ps: int) -> None:
        if row in self._table:
            self._table[row] += 1
            return
        if len(self._table) < self.entries:
            self._table[row] = 1
            return
        # Decrement-all: every counter drops by one; zeroed entries
        # are released (the incoming row claims one when available).
        self.decrements += 1
        zeroed = []
        for tracked in self._table:
            self._table[tracked] -= 1
            if self._table[tracked] == 0:
                zeroed.append(tracked)
        for tracked in zeroed:
            del self._table[tracked]
        if zeroed:
            self._table[row] = 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is MitigationSlotSource.REF:
            self._refs_seen += 1
            if self.refs_per_mitigation and \
                    self._refs_seen % self.refs_per_mitigation:
                return []
        if not self._table:
            return []
        row = max(self._table, key=lambda r: (self._table[r], -r))
        del self._table[row]
        return [row]

    def storage_bits(self) -> int:
        """CAM bits: 17-bit row id + 11-bit counter per entry."""
        return self.entries * (17 + 11)
