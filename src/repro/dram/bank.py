"""Bank state and the ground-truth per-row activation oracle.

The :class:`RowActivationOracle` is the reproduction's *verification*
mechanism: it counts, for every row, the activations received since that
row was last refreshed (demand refresh) or mitigated (victim refresh of
its neighbours).  The paper's attack-success criterion (Section II-A) is
"any row receives more than the threshold number of activations without
any intervening mitigation or refresh", which is exactly what
:meth:`RowActivationOracle.max_unmitigated` exposes.

The oracle is **not** part of any defence -- defences only see what their
own structures record.  Security tests drive attacks against a defence
and then ask the oracle whether the attack ever succeeded.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dram.mapping import RowToSubarrayMapping, SequentialR2SA
from repro.dram.refresh import RefreshSlice
from repro.obs import metrics as _metrics
from repro.params import DramGeometry


class RowActivationOracle:
    """Ground truth: unmitigated activation counts per (logical) row."""

    __slots__ = ("geometry", "mapping", "_counts", "_max_seen", "_max_row")

    def __init__(self, geometry: DramGeometry = DramGeometry(),
                 mapping: Optional[RowToSubarrayMapping] = None) -> None:
        self.geometry = geometry
        self.mapping = mapping if mapping is not None else SequentialR2SA(
            geometry)
        self._counts: Dict[int, int] = {}
        self._max_seen = 0
        self._max_row: Optional[int] = None

    def on_activate(self, row: int) -> int:
        """Record one activation of ``row``; return its running count."""
        count = self._counts.get(row, 0) + 1
        self._counts[row] = count
        if count > self._max_seen:
            self._max_seen = count
            self._max_row = row
        return count

    def on_refresh(self, slice_: RefreshSlice) -> None:
        """Demand refresh of one REF slice resets its rows' counts."""
        slice_.reset_rows(self._counts)

    def on_mitigation(self, aggressor_row: int, blast_radius: int = 2
                      ) -> None:
        """Victim refresh of ``aggressor_row``'s neighbours.

        Refreshing the victims nullifies the disturbance the aggressor has
        accumulated against them, so the aggressor's unmitigated count
        resets.  The victims' own aggressor potential is unaffected (their
        cells were refreshed, not their neighbours').
        """
        self._counts.pop(aggressor_row, None)

    def count(self, row: int) -> int:
        """Current unmitigated activation count of ``row``."""
        return self._counts.get(row, 0)

    @property
    def max_unmitigated(self) -> int:
        """Highest unmitigated count any row has *ever* reached."""
        return self._max_seen

    @property
    def max_row(self) -> Optional[int]:
        """The row that reached :attr:`max_unmitigated` (None if none)."""
        return self._max_row

    def attack_succeeded(self, threshold: int) -> bool:
        """True if any row ever exceeded ``threshold`` unmitigated ACTs."""
        return self._max_seen > threshold


class Bank:
    """Per-bank DRAM state: open row, activation bookkeeping, oracle."""

    __slots__ = ("bank_id", "geometry", "mapping", "open_row", "oracle",
                 "total_activations", "total_mitigations",
                 "victim_rows_refreshed", "_rows_per_bank",
                 "_m_acts", "_m_refs")

    def __init__(self, bank_id: int,
                 geometry: DramGeometry = DramGeometry(),
                 mapping: Optional[RowToSubarrayMapping] = None,
                 subch: int = 0) -> None:
        self.bank_id = bank_id
        self.geometry = geometry
        self.mapping = mapping if mapping is not None else SequentialR2SA(
            geometry)
        self.open_row: Optional[int] = None
        self.oracle = RowActivationOracle(geometry, self.mapping)
        self.total_activations = 0
        self.total_mitigations = 0
        self.victim_rows_refreshed = 0
        self._rows_per_bank = geometry.rows_per_bank
        # Observability binds at construction: per-bank ACT/REF counters
        # are prefetched so the off path is a single None check.
        reg = _metrics._ACTIVE
        self._m_acts = reg.counter("dram.bank.acts", subch, bank_id) \
            if reg is not None else None
        self._m_refs = reg.counter("dram.bank.refs", subch, bank_id) \
            if reg is not None else None

    def activate(self, row: int) -> None:
        """Open ``row`` (the caller has already enforced timing)."""
        if not 0 <= row < self._rows_per_bank:
            raise ValueError(
                f"row {row} out of range for bank with "
                f"{self.geometry.rows_per_bank} rows")
        self.open_row = row
        self.total_activations += 1
        self.oracle.on_activate(row)
        counter = self._m_acts
        if counter is not None:
            counter.value += 1

    def mitigate(self, aggressor_row: int, blast_radius: int = 2) -> int:
        """Refresh the victims of ``aggressor_row``; return victim count."""
        if not 0 <= aggressor_row < self.geometry.rows_per_bank:
            raise ValueError(
                f"cannot mitigate row {aggressor_row}: bank has "
                f"{self.geometry.rows_per_bank} rows")
        victims = self.mapping.physical_neighbors(aggressor_row, blast_radius)
        self.oracle.on_mitigation(aggressor_row, blast_radius)
        self.total_mitigations += 1
        self.victim_rows_refreshed += len(victims)
        return len(victims)

    def refresh(self, slice_: RefreshSlice) -> None:
        """Demand-refresh the rows of one REF slice."""
        self.oracle.on_refresh(slice_)
        counter = self._m_refs
        if counter is not None:
            counter.value += 1
