"""Demand-refresh sweep: REF slices, RefPtr, and region boundaries.

DDR5 refreshes every row once per tREFW by issuing one REF command every
tREFI; with 128K rows per bank and 8192 REFs per window, each REF sweeps
16 physically-consecutive rows (Section V-C / Appendix B).  The sweep
order is *physical*: one subarray at a time, 64 REFs per subarray.

The scheduler is window-size agnostic: ``refs_per_window`` may be the
full 8192 or a scaled-down count (see :class:`repro.params.SimScale`), in
which case each REF slice covers proportionally more rows so one full
sweep still fits in one window -- at scale 8192, the whole bank.

A slice is therefore described by its physical bounds, not by a row
list.  Its logical rows are derived only on demand, and the counter
tables it resets (the ground-truth oracle, per-row trackers) go through
:meth:`RefreshSlice.reset_rows`, which walks whichever is smaller: the
table's live rows or the slice's rows.  A REF then costs O(rows
activated since the last sweep), not O(rows swept).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dram.mapping import RowToSubarrayMapping, SequentialR2SA
from repro.params import DramGeometry


@dataclass(frozen=True)
class RefreshSlice:
    """The work performed by a single REF command on one bank."""

    ref_index: int
    """Index of this REF within the current refresh window."""

    physical_start: int
    """First physical row index refreshed (inclusive)."""

    physical_end: int
    """One past the last physical row index refreshed."""

    mapping: RowToSubarrayMapping = field(repr=False, compare=False)
    """Where logical rows sit in the bank (derives :attr:`logical_rows`)."""

    subarray: int = 0
    """Subarray the slice starts in."""

    starts_subarray: bool = False
    """True when this REF is the first touching :attr:`subarray`."""

    finishes_subarray: bool = False
    """True when this REF refreshes the last rows of :attr:`subarray`."""

    wraps_window: bool = False
    """True when this REF completes the sweep (RefPtr wraps to zero)."""

    @property
    def num_rows(self) -> int:
        """Rows refreshed by this slice."""
        return self.physical_end - self.physical_start

    @property
    def logical_rows(self) -> List[int]:
        """Logical row numbers refreshed by this slice, built on first use."""
        rows = self.__dict__.get("_logical_rows")
        if rows is None:
            rows = self.mapping.logical_rows(self.physical_start,
                                             self.physical_end)
            object.__setattr__(self, "_logical_rows", rows)
        return rows

    def reset_rows(self, table: Dict[int, object]) -> None:
        """Delete the keys of the row-keyed ``table`` this slice covers.

        Only rows activated since their last refresh hold entries, so
        the table is usually far smaller than the slice and its keys'
        physical indices are tested against the bounds; otherwise the
        slice's rows are popped.  The surviving keys keep their order
        either way.
        """
        start, end = self.physical_start, self.physical_end
        if len(table) < end - start:
            rows = list(table)
            for row, p in zip(rows, self.mapping.physical_indices(rows)):
                if start <= p < end:
                    del table[row]
        else:
            pop = table.pop
            for row in self.logical_rows:
                pop(row, None)


class RefreshScheduler:
    """Generates REF slices in physical sweep order, tracking RefPtr."""

    def __init__(self, geometry: DramGeometry = DramGeometry(),
                 mapping: RowToSubarrayMapping = None,
                 refs_per_window: int = None) -> None:
        self.geometry = geometry
        self.mapping = mapping if mapping is not None else SequentialR2SA(
            geometry)
        if refs_per_window is None:
            refs_per_window = geometry.rows_per_bank // geometry.rows_per_ref
        if refs_per_window < 1:
            raise ValueError("refs_per_window must be positive")
        if refs_per_window > geometry.rows_per_bank:
            raise ValueError(
                "refs_per_window cannot exceed rows_per_bank")
        self.refs_per_window = refs_per_window
        # Ceil division: when refs_per_window does not divide the bank
        # evenly (scaled windows), early slices carry the extra rows
        # and the final slice is short -- every row is still refreshed
        # exactly once per window.
        self.rows_per_ref = -(-geometry.rows_per_bank // refs_per_window)
        self.refptr = 0
        self.windows_completed = 0

    def peek_slice(self, ref_index: int = None) -> RefreshSlice:
        """Build the slice for ``ref_index`` without advancing RefPtr."""
        if ref_index is None:
            ref_index = self.refptr
        ref_index %= self.refs_per_window
        start = min(ref_index * self.rows_per_ref,
                    self.geometry.rows_per_bank)
        end = min(start + self.rows_per_ref,
                  self.geometry.rows_per_bank)
        rows_per_sa = self.geometry.rows_per_subarray
        subarray = min(start, self.geometry.rows_per_bank - 1) \
            // rows_per_sa
        return RefreshSlice(
            ref_index=ref_index,
            physical_start=start,
            physical_end=end,
            mapping=self.mapping,
            subarray=subarray,
            starts_subarray=(start % rows_per_sa == 0),
            finishes_subarray=(end % rows_per_sa == 0),
            wraps_window=(ref_index == self.refs_per_window - 1),
        )

    def advance(self) -> RefreshSlice:
        """Return the next REF slice and advance the RefPtr."""
        slice_ = self.peek_slice()
        self.refptr += 1
        if self.refptr == self.refs_per_window:
            self.refptr = 0
            self.windows_completed += 1
        return slice_
