"""PARA: stateless probabilistic victim refresh.

On every activation, with probability ``p`` the activated row is marked
for mitigation at the next available slot.  PARA needs no storage but
requires a high ``p`` at low thresholds, making it mitigation-hungry --
it is included as the classic point of comparison for MINT's
"one selection per window" discipline (a PARA with ``p = 1/W`` performs
the same expected number of mitigations as MINT-W but with a weaker
worst-case guarantee, which the property tests explore).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.mitigations.base import BankTracker, MitigationSlotSource


class ParaTracker(BankTracker):
    """Mitigate each activated row with independent probability ``p``."""

    name = "para"

    def __init__(self, probability: float,
                 rng: Optional[random.Random] = None,
                 pending_capacity: int = 4) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.probability = probability
        self.rng = rng if rng is not None else random.Random(0)
        self.pending_capacity = pending_capacity
        self._pending: List[int] = []
        self.dropped = 0

    def on_activate(self, row: int, now_ps: int) -> None:
        if self.rng.random() < self.probability:
            if len(self._pending) < self.pending_capacity:
                self._pending.append(row)
            else:
                self.dropped += 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if not self._pending:
            return []
        return [self._pending.pop(0)]
