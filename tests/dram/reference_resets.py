"""Per-row-pop slice reset and region-loop RCT reset: the references.

They are the plainest correct forms of the two refresh resets: pop
every row the slice covers from a row-keyed table, and walk every
region the slice touches testing whether the slice begins or ends it.
Their cost grows with the slice (a whole bank at small-window scales),
so the simulator uses :meth:`RefreshSlice.reset_rows` and the RCT's
closed form instead; these serve only as the oracle that
``test_refresh_reset.py`` compares those to, step by step.
"""

from repro.core.rct import RegionCountTable, ResetPolicy
from repro.dram.refresh import RefreshSlice


class PopEachRowSlice(RefreshSlice):
    """A slice whose reset pops every row it covers, one by one."""

    def reset_rows(self, table) -> None:
        for row in self.mapping.logical_rows(self.physical_start,
                                             self.physical_end):
            table.pop(row, None)


def pop_each_row(slice_: RefreshSlice) -> PopEachRowSlice:
    """The reference twin of ``slice_`` (same bounds and mapping)."""
    return PopEachRowSlice(
        ref_index=slice_.ref_index, physical_start=slice_.physical_start,
        physical_end=slice_.physical_end, mapping=slice_.mapping,
        subarray=slice_.subarray, starts_subarray=slice_.starts_subarray,
        finishes_subarray=slice_.finishes_subarray,
        wraps_window=slice_.wraps_window)


class LoopRegionCountTable(RegionCountTable):
    """An RCT that visits every region a slice touches."""

    def on_ref_slice(self, slice_: RefreshSlice) -> None:
        start_region = self.region_of(slice_.physical_start)
        end_region = self.region_of(slice_.physical_end - 1)
        for region in range(start_region, end_region + 1):
            first = region * self.region_size
            last = first + self.region_size  # exclusive
            begins = slice_.physical_start <= first < slice_.physical_end
            ends = slice_.physical_start < last <= slice_.physical_end
            reset = False
            if self.reset_policy is ResetPolicy.EAGER:
                if begins:
                    self._counters[region] = 0
                    reset = True
            elif self.reset_policy is ResetPolicy.LAZY:
                if ends:
                    self._counters[region] = 0
                    reset = True
            else:  # SAFE
                if begins:
                    self._rrc = self._counters[region]
                    self._counters[region] = 0
                    self._refreshing_region = region
                    reset = True
                if ends and self._refreshing_region == region:
                    self._refreshing_region = None
            if reset and self._m_resets is not None:
                self._m_resets.value += 1
