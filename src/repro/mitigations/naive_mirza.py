"""Naive MIRZA: MINT + ABO + queue, *without* coarse-grained filtering.

Section IV-A's first step: take MINT's randomized selection, buffer the
selected rows in a per-bank queue, and obtain mitigation time reactively
via ALERT instead of proactively via REF/RFM.  Every activation
participates in MINT selection (there is no RCT), so at MINT-W of
24/48/96 the ALERT rate is one per few dozen activations per bank --
which is why Table V still shows RFM-like slowdowns (5%-15%) and why the
full MIRZA adds filtering.

Implemented as the full :class:`repro.core.mirza.MirzaTracker` with
``FTH = 0`` (and a single region), so the two designs share every code
path except the filter -- making the Table V vs Figure 11a comparison a
true ablation.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.mapping import RowToSubarrayMapping
from repro.params import DramGeometry


class NaiveMirzaTracker(MirzaTracker):
    """MINT + ABO with a MIRZA-Q but no filtering (FTH = 0)."""

    __slots__ = ()

    name = "naive-mirza"

    def __init__(self, mint_window: int, queue_entries: int = 4,
                 qth: int = 16,
                 geometry: DramGeometry = DramGeometry(),
                 mapping: Optional[RowToSubarrayMapping] = None,
                 rng: Optional[random.Random] = None) -> None:
        config = MirzaConfig(
            trhd=0, fth=0, mint_window=mint_window, num_regions=1,
            queue_entries=queue_entries, qth=qth)
        super().__init__(config, geometry, mapping, rng)
