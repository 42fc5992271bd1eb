"""The Region Count Table: coarse-grained filtering with safe reset.

The RCT holds one saturating counter per *region* (a group of
physically-contiguous rows, one subarray by default).  Every activation
looks up its region's counter:

- counter <= FTH: the counter is incremented and the activation is
  **filtered** -- it does not participate in any mitigation (this is the
  case for >99% of benign activations under strided mapping);
- counter > FTH: the counter saturates and the activation **escapes**
  the filter, participating in MINT's probabilistic selection.

Counters must be reset once per refresh window, synchronised with the
demand-refresh sweep of the region.  Appendix B shows that resetting on
the *first* REF of the region (eager) or the *last* (lazy) both leak up
to ``2*(FTH-1)`` unfiltered activations; the safe policy copies the
counter into a Refreshed-Region-Counter (RRC) register when the region's
sweep begins, resets the table entry, mirrors updates into both, and
uses the RRC for the filtering decision while the sweep is in flight.
All three policies are implemented so the security tests can demonstrate
the gap (``TestResetPolicyAblation`` in
``tests/integration/test_security_integration.py``).

Edge rule (Section VI-B footnote): when the region size is smaller than
a subarray, an activation to a row at a region boundary also increments
the neighbouring region's counter, so a victim row at the edge cannot
have its two aggressors tracked by two different half-full counters.

``MirzaTracker`` drives a table one ACT and one REF slice at a time
(:meth:`RegionCountTable.on_activate`,
:meth:`RegionCountTable.on_ref_slice`); the counting tier lands a
bank's ACTs a block of REF intervals at a time
(:meth:`RegionCountTable.on_block`) with the same outcome, and tallies
the count each ACT was decided on, so one table at the largest FTH of
a sweep answers every smaller FTH.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from repro.dram.refresh import RefreshSlice
from repro.obs import metrics as _metrics
from repro.params import DramGeometry


SliceBounds = Tuple[int, int, int, int]
"""``(first_ended, past_ended, lo, hi)`` of one REF slice on a table
(:meth:`RegionCountTable.slice_bounds`)."""


class ResetPolicy(enum.Enum):
    """When the RCT entry of a region under refresh gets reset."""

    SAFE = "safe"
    EAGER = "eager"
    LAZY = "lazy"


class RegionCountTable:
    """Per-region saturating activation counters with FTH filtering."""

    __slots__ = ("num_regions", "fth", "geometry", "reset_policy",
                 "region_size", "_counters", "_rrc", "_refreshing_region",
                 "filtered_acts", "escaped_acts", "_edge_possible",
                 "_m_filtered", "_m_escaped", "_m_resets")

    def __init__(self, num_regions: int, fth: int,
                 geometry: DramGeometry = DramGeometry(),
                 reset_policy: ResetPolicy = ResetPolicy.SAFE) -> None:
        if num_regions < 1:
            raise ValueError("need at least one region")
        if geometry.rows_per_bank % num_regions:
            raise ValueError("num_regions must divide rows_per_bank")
        if fth < 0:
            raise ValueError("FTH must be non-negative")
        self.num_regions = num_regions
        self.fth = fth
        self.geometry = geometry
        self.reset_policy = reset_policy
        self.region_size = geometry.rows_per_bank // num_regions
        self._counters: List[int] = [0] * num_regions
        self._rrc: int = 0
        self._edge_possible = self.region_size < geometry.rows_per_subarray
        self._refreshing_region: Optional[int] = None
        self.filtered_acts = 0
        self.escaped_acts = 0
        reg = _metrics._ACTIVE
        if reg is not None:
            self._m_filtered = reg.counter("rct.filtered")
            self._m_escaped = reg.counter("rct.escaped")
            self._m_resets = reg.counter("rct.resets")
        else:
            self._m_filtered = self._m_escaped = self._m_resets = None

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def region_of(self, physical_row: int) -> int:
        """Region index of a bank-local physical row index."""
        return physical_row // self.region_size

    def _edge_neighbor_region(self, physical_row: int) -> Optional[int]:
        """Region sharing a blast radius with ``physical_row``, if any.

        Only region boundaries *inside* a subarray matter: subarrays are
        electrically isolated, so a boundary aligned with a subarray edge
        cannot be hammered across.
        """
        if self.region_size >= self.geometry.rows_per_subarray:
            return None
        offset = physical_row % self.region_size
        region = self.region_of(physical_row)
        pos_in_sa = physical_row % self.geometry.rows_per_subarray
        if offset == 0 and pos_in_sa != 0:
            return region - 1
        last = self.region_size - 1
        if offset == last and pos_in_sa != self.geometry.rows_per_subarray - 1:
            return region + 1
        return None

    # ------------------------------------------------------------------
    # Counter access
    # ------------------------------------------------------------------
    def count(self, region: int) -> int:
        """Effective counter used for the filtering decision."""
        if (self.reset_policy is ResetPolicy.SAFE
                and region == self._refreshing_region):
            return self._rrc
        return self._counters[region]

    def _bump(self, region: int) -> None:
        """Increment a region counter, saturating at FTH + 1."""
        if self._counters[region] <= self.fth:
            self._counters[region] += 1
        if (self.reset_policy is ResetPolicy.SAFE
                and region == self._refreshing_region
                and self._rrc <= self.fth):
            self._rrc += 1

    def on_activate(self, physical_row: int) -> bool:
        """Record an ACT; return True iff it escapes the filter.

        An escaping activation participates in MINT selection; a filtered
        one needs no mitigation at all.
        """
        region = physical_row // self.region_size
        fth = self.fth
        counters = self._counters
        count = counters[region]
        if count <= fth:
            counters[region] = count + 1
        if region == self._refreshing_region:
            # Only SAFE sets a region in flight: its RRC decides.
            rrc = self._rrc
            escaped = rrc > fth
            if not escaped:
                self._rrc = rrc + 1
        else:
            escaped = count > fth
        if self._edge_possible:
            neighbor = self._edge_neighbor_region(physical_row)
            if neighbor is not None and 0 <= neighbor < self.num_regions:
                self._bump(neighbor)
        if escaped:
            self.escaped_acts += 1
            counter = self._m_escaped
        else:
            self.filtered_acts += 1
            counter = self._m_filtered
        if counter is not None:
            counter.value += 1
        return escaped

    def on_block(self, physical_rows: Sequence[int], acts_per_ref: int,
                 bounds: Sequence[SliceBounds],
                 tally: Optional[List[int]] = None) -> None:
        """Land a bank's ACTs for whole REF intervals at once.

        ``physical_rows`` holds one interval of ``acts_per_ref`` ACTs
        per entry of ``bounds``, each followed by the REF slice those
        are the :meth:`slice_bounds` of, then at most one trailing
        partial interval (fewer than ``acts_per_ref`` ACTs, no slice).
        The bounds depend only on the slice, the region size and the
        reset policy, so a caller landing many banks computes each
        slice's once.  The table ends exactly as stepping
        :meth:`on_activate` per ACT and :meth:`on_ref_slice` per slice
        leaves it: every ACT is decided inline -- on the RRC when its
        region's SAFE sweep is in flight, bumping an edge neighbour
        before the next ACT -- and the counts and metric counters are
        added once per block.

        Each ACT is also tallied under the count it was decided on:
        ``tally[c]`` gains one per ACT that read ``c``, so
        ``tally[fth + 1]`` counts the escapes.  Resets and sweeps never
        depend on FTH, and a count saturating at ``fth + 1`` exceeds a
        smaller threshold ``f`` exactly when the unsaturated count
        would, so the tally answers every ``f <= fth`` at once:
        ``sum(tally[f + 1:])`` ACTs escape a table at FTH ``f``.  Pass
        one list of ``fth + 2`` zeros to every call whose tallies
        should add up (every bank of a counting pass); without one the
        block is tallied into a fresh list.
        """
        intervals = len(bounds)
        total = len(physical_rows)
        if not (acts_per_ref >= 1 and intervals * acts_per_ref <= total
                < (intervals + 1) * acts_per_ref):
            raise ValueError(
                f"a block is whole intervals of {acts_per_ref} ACTs, one "
                f"per slice, plus a partial one; got {total} ACTs and "
                f"{intervals} slices")
        counters = self._counters
        fth = self.fth
        if tally is None:
            tally = [0] * (fth + 2)
        elif len(tally) < fth + 2:
            raise ValueError(f"a tally for FTH {fth} needs {fth + 2} "
                             f"entries; got {len(tally)}")
        size = self.region_size
        last = size - 1
        num_regions = self.num_regions
        rows_per_sa = self.geometry.rows_per_subarray
        edge = self._edge_possible
        safe = self.reset_policy is ResetPolicy.SAFE
        rrc = self._rrc
        inflight = self._refreshing_region
        escaped = resets = 0
        for k, first in enumerate(range(0, total, acts_per_ref)):
            run = physical_rows[first:first + acts_per_ref]
            if inflight is None and not edge:
                for p in run:
                    region = p // size
                    count = counters[region]
                    if count > fth:
                        escaped += 1
                    else:
                        counters[region] = count + 1
                        tally[count] += 1
            else:
                for p in run:
                    region = p // size
                    if region == inflight:
                        if rrc > fth:
                            escaped += 1
                        else:
                            tally[rrc] += 1
                            rrc += 1
                        count = counters[region]
                        if count <= fth:
                            counters[region] = count + 1
                    else:
                        count = counters[region]
                        if count > fth:
                            escaped += 1
                        else:
                            counters[region] = count + 1
                            tally[count] += 1
                    if not edge:
                        continue
                    offset = p % size
                    if offset == 0 and p % rows_per_sa:
                        neighbor = region - 1
                    elif (offset == last
                          and p % rows_per_sa != rows_per_sa - 1):
                        neighbor = region + 1
                    else:
                        continue
                    if 0 <= neighbor < num_regions:
                        count = counters[neighbor]
                        if count <= fth:
                            counters[neighbor] = count + 1
                        if neighbor == inflight and rrc <= fth:
                            rrc += 1
            if k == intervals:
                break
            # The closed form of on_ref_slice, on the local state.
            first_ended, past_ended, lo, hi = bounds[k]
            if safe:
                if lo < hi:
                    rrc = counters[hi - 1]
                    inflight = None if hi - 1 < past_ended else hi - 1
                elif (inflight is not None
                      and first_ended <= inflight < past_ended):
                    inflight = None
            if lo < hi:
                counters[lo:hi] = [0] * (hi - lo)
                resets += hi - lo
        self._rrc = rrc
        self._refreshing_region = inflight
        tally[fth + 1] += escaped
        filtered = total - escaped
        self.escaped_acts += escaped
        self.filtered_acts += filtered
        if self._m_escaped is not None:
            self._m_escaped.value += escaped
            self._m_filtered.value += filtered
            self._m_resets.value += resets

    # ------------------------------------------------------------------
    # Refresh-synchronised reset
    # ------------------------------------------------------------------
    def slice_bounds(self, slice_: RefreshSlice) -> SliceBounds:
        """Where one REF slice lands on this table's regions.

        A slice *begins* the regions whose first row it refreshes and
        *ends* those whose last row it refreshes; each set is a
        contiguous run of regions.  Returns ``(first_ended,
        past_ended, lo, hi)``: the regions the slice ends are
        ``[first_ended, past_ended)``, and those it resets are ``[lo,
        hi)`` -- the ones it begins, or under LAZY the ones it ends.
        """
        size = self.region_size
        start, end = slice_.physical_start, slice_.physical_end
        first_ended, past_ended = start // size, end // size
        if self.reset_policy is ResetPolicy.LAZY:
            return first_ended, past_ended, first_ended, past_ended
        return first_ended, past_ended, -(-start // size), -(-end // size)

    def on_ref_slice(self, slice_: RefreshSlice) -> None:
        """Advance the reset state machine with one REF's sweep slice.

        The resets of :meth:`slice_bounds` are one slice assignment
        however many regions the slice spans.  Under SAFE, each region
        begun overwrites the RRC and becomes the one in flight, so only
        the last one begun survives the slice (and not even that one if
        the slice also ends it).
        """
        first_ended, past_ended, lo, hi = self.slice_bounds(slice_)
        if self.reset_policy is ResetPolicy.SAFE:
            if lo < hi:
                self._rrc = self._counters[hi - 1]
                self._refreshing_region = (None if hi - 1 < past_ended
                                           else hi - 1)
            elif (self._refreshing_region is not None
                  and first_ended <= self._refreshing_region
                  < past_ended):
                self._refreshing_region = None
        if lo < hi:
            self._counters[lo:hi] = [0] * (hi - lo)
            if self._m_resets is not None:
                self._m_resets.value += hi - lo
