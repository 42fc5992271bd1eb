"""Demand-refresh sweep: REF slices, RefPtr, and region boundaries.

DDR5 refreshes every row once per tREFW by issuing one REF command every
tREFI; with 128K rows per bank and 8192 REFs per window, each REF sweeps
16 physically-consecutive rows (Section V-C / Appendix B).  The sweep
order is *physical*: one subarray at a time, 64 REFs per subarray.

The scheduler is window-size agnostic: ``refs_per_window`` may be the
full 8192 or a scaled-down count (see :class:`repro.params.SimScale`), in
which case each REF slice covers proportionally more rows so one full
sweep still fits in one window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

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

    logical_rows: List[int] = field(default_factory=list)
    """Logical row numbers refreshed by this slice."""

    subarray: int = 0
    """Subarray the slice starts in."""

    starts_subarray: bool = False
    """True when this REF is the first touching :attr:`subarray`."""

    finishes_subarray: bool = False
    """True when this REF refreshes the last rows of :attr:`subarray`."""

    wraps_window: bool = False
    """True when this REF completes the sweep (RefPtr wraps to zero)."""

    def row_set(self) -> frozenset:
        """Membership-testable view of :attr:`logical_rows`, cached.

        A slice covers thousands of rows and is consumed by every bank's
        oracle plus several trackers; building the frozenset once per
        slice (instead of per consumer) keeps refresh sweeps off the
        profile.
        """
        cached = self.__dict__.get("_row_set")
        if cached is None:
            cached = frozenset(self.logical_rows)
            object.__setattr__(self, "_row_set", cached)
        return cached


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

    def peek_slice(self, ref_index: int = None,
                   logical_rows: bool = True) -> RefreshSlice:
        """Build the slice for ``ref_index`` without advancing RefPtr.

        ``logical_rows=False`` leaves :attr:`RefreshSlice.logical_rows`
        empty, for consumers that read only the physical bounds (the
        RCT's reset state machine) and would otherwise pay for a list
        of ``rows_per_ref`` rows per REF.
        """
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
        logical = (self.mapping.logical_rows(start, end) if logical_rows
                   else [])
        return RefreshSlice(
            ref_index=ref_index,
            physical_start=start,
            physical_end=end,
            logical_rows=logical,
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

    def subarray_being_refreshed(self) -> int:
        """Subarray the *next* REF will touch (the in-flight subarray)."""
        start = (self.refptr % self.refs_per_window) * self.rows_per_ref
        return start // self.geometry.rows_per_subarray

    def refs_per_subarray(self) -> int:
        """Number of REF commands needed to sweep one subarray."""
        return max(1, self.geometry.rows_per_subarray // self.rows_per_ref)
