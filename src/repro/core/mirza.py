"""The assembled MIRZA tracker: RCT -> MINT -> MIRZA-Q -> ALERT.

One :class:`MirzaTracker` instance protects one bank (Figure 8).  An
activation takes one of three paths (Section V-B):

1. The RCT counter is at or below FTH: the counter is incremented and
   nothing else happens -- the activation is filtered.
2. The row is already buffered in MIRZA-Q: its tardiness counter is
   incremented.
3. The RCT counter exceeds FTH and the row is not queued: the row
   participates in MINT's probabilistic selection and, if selected, is
   enqueued.

The tracker raises ``wants_alert`` when MIRZA-Q is full or any entry's
tardiness exceeds QTH; the device then runs the ABO sequence and calls
``on_mitigation_slot`` with ``ALERT``, which evicts and mitigates the
highest-tardiness entry.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.config import MirzaConfig
from repro.core.mint import MintSampler
from repro.core.mirza_q import MirzaQueue
from repro.core.rct import RegionCountTable, ResetPolicy
from repro.dram.mapping import RowToSubarrayMapping, StridedR2SA
from repro.dram.refresh import RefreshSlice
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.params import DramGeometry


class MirzaTracker(BankTracker):
    """Per-bank MIRZA mitigation engine."""

    name = "mirza"

    __slots__ = ("config", "mapping", "rct", "mint", "queue",
                 "acts_observed", "_queued")

    def __init__(self, config: MirzaConfig,
                 geometry: DramGeometry = DramGeometry(),
                 mapping: Optional[RowToSubarrayMapping] = None,
                 rng: Optional[random.Random] = None,
                 reset_policy: ResetPolicy = ResetPolicy.SAFE) -> None:
        self.config = config
        self.mapping = mapping if mapping is not None else StridedR2SA(
            geometry)
        self.rct = RegionCountTable(config.num_regions, config.fth,
                                    geometry, reset_policy)
        self.mint = MintSampler(config.mint_window,
                                rng if rng is not None else random.Random(0))
        self.queue = MirzaQueue(config.queue_entries, config.qth)
        # MIRZA-Q's row -> tardiness dict: the per-ACT path bumps a
        # queued row's count in place (what MirzaQueue.on_activate does).
        self._queued = self.queue._entries
        self.acts_observed = 0

    def on_activate(self, row: int, now_ps: int) -> None:
        self.acts_observed += 1
        escaped = self.rct.on_activate(self.mapping.physical_index(row))
        queued = self._queued
        if row in queued:
            queued[row] += 1
            return
        if escaped:
            selected = self.mint.observe(row)
            if selected is not None:
                self.queue.insert(selected)

    def wants_alert(self) -> bool:
        return self.queue.wants_alert()

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        """ALERT/RFM time: mitigate the highest-tardiness queued entry.

        MIRZA never borrows REF time (Table XII: zero refresh
        cannibalisation), so REF slots are declined.
        """
        if source is MitigationSlotSource.REF:
            return []
        row = self.queue.pop_max()
        return [row] if row is not None else []

    def on_ref_slice(self, slice_: RefreshSlice, now_ps: int) -> None:
        self.rct.on_ref_slice(slice_)
