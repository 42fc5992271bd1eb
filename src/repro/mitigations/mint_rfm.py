"""Classic proactive MINT: random sampling + periodic mitigation.

MINT (MICRO 2024) selects one of every ``window`` activations uniformly
at random (see :class:`repro.core.mint.MintSampler`) and mitigates the
selected row at the next *proactive* mitigation opportunity -- either a
REF slot (one mitigation per ``refs_per_mitigation`` REFs, cannibalising
refresh time) or an RFM issued by the memory controller every ``window``
activations (Section II-F).

Selected rows wait in a small *Delayed Mitigation Queue* (DMQ) so that a
selection is never lost when refreshes are postponed; the paper's
Table XII configuration uses a DMQ and one mitigation per 3 REF at
TRHD = 4.8K.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.mint import MintSampler
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.obs import metrics as _metrics


class MintTracker(BankTracker):
    """Proactive MINT with a Delayed Mitigation Queue."""

    name = "mint"

    def __init__(self, window: int, refs_per_mitigation: int = 0,
                 dmq_entries: int = 2,
                 rng: Optional[random.Random] = None) -> None:
        """``refs_per_mitigation = 0`` means RFM-paced (never uses REF)."""
        self.sampler = MintSampler(window,
                                   rng if rng is not None else
                                   random.Random(0))
        self.window = window
        self.refs_per_mitigation = refs_per_mitigation
        self.dmq_entries = dmq_entries
        self._pending: List[int] = []
        self._refs_seen = 0
        self.dropped_selections = 0

    def _push(self, row: int) -> None:
        """Queue a selection, evicting the oldest when the DMQ is full.

        An evicted selection is lost; MINT's security model budgets for
        refresh postponement, but a sustained overflow is a signal the
        mitigation cadence is too slow for the window.
        """
        if len(self._pending) >= self.dmq_entries:
            self._pending.pop(0)
            self.dropped_selections += 1
            reg = _metrics._ACTIVE
            if reg is not None:
                reg.counter("mint.dmq_drops").value += 1
        self._pending.append(row)

    def on_activate(self, row: int, now_ps: int) -> None:
        selected = self.sampler.observe(row)
        if selected is not None:
            self._push(row)

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is MitigationSlotSource.REF:
            if not self.refs_per_mitigation:
                return []
            self._refs_seen += 1
            if self._refs_seen % self.refs_per_mitigation:
                return []
        if not self._pending:
            return []
        return [self._pending.pop(0)]
