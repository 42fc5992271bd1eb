"""MINT: the Minimalist In-DRAM Tracker's window sampler (Figure 2).

MINT operates on a window of ``W`` activations.  At the start of each
window it draws one index uniformly at random from ``[0, W)``; the
activation arriving at that index is *selected* for mitigation.  Exactly
one activation is selected per window, so an attacker hammering a row
``d`` times within a window escapes selection with probability
``1 - d/W`` -- the quantity the security model in
:mod:`repro.security.mint_model` is built on.

The sampler is deliberately tiny: a position counter and a target index.
That is the entire per-bank tracking state of MINT, which is why it
needs only a single entry of storage.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.obs import metrics as _metrics


class MintSampler:
    """Selects one of every ``window`` observed activations at random."""

    __slots__ = ("window", "rng", "_position", "_target",
                 "windows_completed", "observed", "selected",
                 "_m_observed", "_m_selected")

    def __init__(self, window: int, rng: Optional[random.Random] = None
                 ) -> None:
        if window < 1:
            raise ValueError("MINT window must be at least 1")
        self.window = window
        self.rng = rng if rng is not None else random.Random(0)
        self._position = 0
        self._target = self.rng.randrange(self.window)
        self.windows_completed = 0
        self.observed = 0
        self.selected = 0
        reg = _metrics._ACTIVE
        if reg is not None:
            self._m_observed = reg.counter("mint.observed")
            self._m_selected = reg.counter("mint.selected")
        else:
            self._m_observed = self._m_selected = None

    def observe(self, row: int) -> Optional[int]:
        """Observe one activation; return ``row`` iff it was selected.

        The caller receives the selected row *at the moment of the
        selected activation* -- in MIRZA the row is enqueued immediately
        (Section V-A); in classic MINT the caller holds it until the next
        mitigation opportunity.
        """
        self.observed += 1
        counter = self._m_observed
        if counter is not None:
            counter.value += 1
        picked = None
        if self._position == self._target:
            picked = row
            self.selected += 1
            counter = self._m_selected
            if counter is not None:
                counter.value += 1
        self._position += 1
        if self._position == self.window:
            self._position = 0
            self._target = self.rng.randrange(self.window)
            self.windows_completed += 1
        return picked
