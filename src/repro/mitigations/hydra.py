"""Hydra: hybrid SRAM/DRAM activation counting (ISCA 2022).

Hydra tracks per-row counts at ultra-low thresholds without a full
per-row SRAM table by splitting the tracker:

- a small SRAM **Group Count Table (GCT)**: one counter per group of
  rows, incremented until the group crosses a threshold;
- on crossing, the group's rows get *individual* counters in a
  DRAM-resident **Row Count Table (RCT-H)**, cached through a small
  SRAM **Row Count Cache (RCC)**.

Benign groups never leave the cheap group stage; hot rows get exact
counts.  The MIRZA paper's related work notes Hydra's downside for the
in-DRAM setting: the row-count lookups add DRAM traffic (we account
them as ``dram_lookups``), which is why it stays an MC-side design.

A row is mitigated when its exact count reaches the mitigation
threshold; mitigation happens at the next REF/RFM slot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.mitigations.base import BankTracker, MitigationSlotSource


class HydraTracker(BankTracker):
    """Group counters + overflow per-row counters behind a cache."""

    name = "hydra"

    def __init__(self, rows_per_bank: int = 128 * 1024,
                 rows_per_group: int = 128,
                 group_threshold: int = 200,
                 mitigation_threshold: int = 400,
                 cache_entries: int = 64) -> None:
        if rows_per_group < 1 or rows_per_bank % rows_per_group:
            raise ValueError(
                "rows_per_group must divide rows_per_bank")
        if mitigation_threshold <= group_threshold:
            raise ValueError(
                "mitigation threshold must exceed group threshold")
        self.rows_per_group = rows_per_group
        self.num_groups = rows_per_bank // rows_per_group
        self.group_threshold = group_threshold
        self.mitigation_threshold = mitigation_threshold
        self.cache_entries = cache_entries
        self._group_counts: Dict[int, int] = {}
        self._row_counts: Dict[int, int] = {}   # DRAM-resident RCT
        self._rcc: "OrderedDict[int, None]" = OrderedDict()
        self._pending: List[int] = []
        self.dram_lookups = 0
        self.dram_writebacks = 0

    def _group_of(self, row: int) -> int:
        return row // self.rows_per_group

    def _touch_cache(self, row: int) -> None:
        """RCC access: a miss costs a DRAM lookup (and a writeback
        when a dirty line is evicted)."""
        if row in self._rcc:
            self._rcc.move_to_end(row)
            return
        self.dram_lookups += 1
        self._rcc[row] = None
        if len(self._rcc) > self.cache_entries:
            self._rcc.popitem(last=False)
            self.dram_writebacks += 1

    def on_activate(self, row: int, now_ps: int) -> None:
        group = self._group_of(row)
        count = self._group_counts.get(group, 0)
        if count < self.group_threshold:
            # Cheap stage: one shared SRAM counter for the group.
            self._group_counts[group] = count + 1
            return
        if count == self.group_threshold:
            # Overflow: give every row in the group an individual
            # counter initialised to the group count (a sound upper
            # bound on each row's true count).
            self._group_counts[group] = count + 1
            base = group * self.rows_per_group
            for r in range(base, base + self.rows_per_group):
                self._row_counts[r] = count
        self._touch_cache(row)
        new = self._row_counts.get(row, count) + 1
        self._row_counts[row] = new
        if new == self.mitigation_threshold:
            self._pending.append(row)

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if not self._pending:
            return []
        row = self._pending.pop(0)
        self._row_counts[row] = 0
        return [row]

    def on_ref_slice(self, slice_, now_ps: int) -> None:
        """Refreshed rows reset their exact counters; a fully swept
        window (wrap) resets the group stage."""
        slice_.reset_rows(self._row_counts)
        if slice_.wraps_window:
            self._group_counts.clear()

    def storage_bits(self) -> int:
        """SRAM only: the GCT and the RCC (the RCT lives in DRAM)."""
        gct = self.num_groups * \
            max(1, (self.group_threshold + 1).bit_length())
        rcc = self.cache_entries * (17 + max(
            1, (self.mitigation_threshold + 1).bit_length()))
        return gct + rcc
