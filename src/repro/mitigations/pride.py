"""PrIDE: probabilistic in-DRAM tracking with a small FIFO (ISCA'24).

PrIDE inserts each activated row into a small per-bank FIFO with a
fixed probability ``p`` and mitigates the FIFO head at each proactive
mitigation opportunity (REF or RFM).  Like MINT it needs almost no
storage and is secure by randomisation; unlike MINT the insertion
lottery is independent per activation, so bursts can overflow the FIFO
(insertions to a full queue are dropped -- the published design sizes
``p`` and the queue so drops are rare at the protected threshold).

Included as the second randomized-tracker baseline of Figure 1(a); the
MIRZA paper builds on MINT but cites PrIDE as the other principled
low-cost tracker.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Optional

from repro.mitigations.base import BankTracker, MitigationSlotSource


class PrideTracker(BankTracker):
    """Probabilistic FIFO tracker mitigating under REF/RFM."""

    name = "pride"

    def __init__(self, insertion_probability: float = 1.0 / 16,
                 queue_entries: int = 4,
                 refs_per_mitigation: int = 1,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 < insertion_probability <= 1.0:
            raise ValueError("insertion probability must be in (0, 1]")
        if queue_entries < 1:
            raise ValueError("queue needs at least one entry")
        self.insertion_probability = insertion_probability
        self.queue_entries = queue_entries
        self.refs_per_mitigation = refs_per_mitigation
        self.rng = rng if rng is not None else random.Random(0)
        self._fifo: Deque[int] = deque()
        self._refs_seen = 0
        self.insertions = 0
        self.dropped = 0

    def on_activate(self, row: int, now_ps: int) -> None:
        if self.rng.random() >= self.insertion_probability:
            return
        if len(self._fifo) >= self.queue_entries:
            self.dropped += 1
            return
        self._fifo.append(row)
        self.insertions += 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is MitigationSlotSource.REF:
            self._refs_seen += 1
            if self.refs_per_mitigation and \
                    self._refs_seen % self.refs_per_mitigation:
                return []
        if not self._fifo:
            return []
        return [self._fifo.popleft()]

    def storage_bits(self) -> int:
        """FIFO entries (17-bit row ids) plus head/tail pointers."""
        pointer_bits = max(1, (self.queue_entries - 1).bit_length())
        return self.queue_entries * 17 + 2 * pointer_bits
