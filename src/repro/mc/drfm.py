"""DRFM-based MC-side mitigation (DREAM / MIST, Section X).

DDR5's *Directed Refresh Management* command lets the memory
controller hand the DRAM an aggressor row address; the chip refreshes
that row's victims, and one DRFM covers the sampled row position
across many banks in parallel.  Two recent MC-side defences build on
it:

- **MIST** keeps a sampled aggressor latched per bank (MINT-style
  window sampling) so that whenever a DRFM is issued, *every* bank has
  something useful to mitigate;
- **DREAM** delays the DRFM until enough banks hold samples, so each
  (expensive) command mitigates several banks at once.

:class:`DrfmEngine` implements both behaviours behind two knobs: the
per-bank sampling window and the minimum number of latched samples
required before a DRFM is released (``min_samples=1`` is plain
periodic DRFM; larger values are DREAM-style batching).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.mint import MintSampler
from repro.obs import metrics as _metrics


class DrfmEngine:
    """MC-side aggressor sampling + batched DRFM issue."""

    def __init__(self, num_banks: int, sample_window: int = 16,
                 acts_per_drfm: int = 64, min_samples: int = 1,
                 rng: Optional[random.Random] = None) -> None:
        if acts_per_drfm < 1:
            raise ValueError("acts_per_drfm must be >= 1")
        if not 1 <= min_samples <= num_banks:
            raise ValueError("min_samples must be in [1, num_banks]")
        self.acts_per_drfm = acts_per_drfm
        self.min_samples = min_samples
        rng = rng if rng is not None else random.Random(0)
        self._samplers = [
            MintSampler(sample_window,
                        random.Random(rng.getrandbits(32)))
            for _ in range(num_banks)]
        self._samples: Dict[int, int] = {}
        self._acts_since_drfm = 0
        self.drfms_issued = 0
        self.deferrals = 0

    def on_activate(self, bank: int, row: int) -> bool:
        """Observe an ACT; returns True when a DRFM should issue now."""
        selected = self._samplers[bank].observe(row)
        if selected is not None:
            # MIST: the latch always holds the *latest* sample so a
            # DRFM never goes to waste.
            self._samples[bank] = selected
        self._acts_since_drfm += 1
        if self._acts_since_drfm < self.acts_per_drfm:
            return False
        if len(self._samples) < self.min_samples:
            # DREAM: defer until the command can serve enough banks.
            self.deferrals += 1
            reg = _metrics._ACTIVE
            if reg is not None:
                reg.counter("drfm.deferrals").value += 1
            return False
        return True

    def issue_drfm(self) -> List[Tuple[int, int]]:
        """Release the pending samples: [(bank, aggressor_row), ...].

        The caller (controller) mitigates every pair under a single
        DRFM stall -- that per-command parallelism is the whole point.
        """
        pairs = sorted(self._samples.items())
        self._samples.clear()
        self._acts_since_drfm = 0
        if pairs:
            self.drfms_issued += 1
            reg = _metrics._ACTIVE
            if reg is not None:
                reg.counter("drfm.issued").value += 1
                reg.counter("drfm.banks_served").value += len(pairs)
        return pairs
