"""The O(live rows) refresh resets against their references.

:meth:`RefreshSlice.reset_rows` walks whichever is smaller, a row-keyed
table or the slice, and the RCT resets the regions a slice covers in
closed form.  Every lockstep test here drives a component and its twin
through the same seeded ACTs and REF slices -- one twin resetting the
fast way, the other through ``reference_resets.py`` -- and after every
slice asserts the same state, dict order included.
"""

import random

import pytest

from repro import obs
from repro.core.rct import RegionCountTable, ResetPolicy
from repro.dram.bank import RowActivationOracle
from repro.dram.mapping import (
    RowToSubarrayMapping,
    SequentialR2SA,
    StridedR2SA,
)
from repro.dram.refresh import RefreshScheduler, RefreshSlice
from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.hydra import HydraTracker
from repro.mitigations.prac import PracTracker
from repro.params import DramGeometry, SimScale
from repro.sim.registry import setup_by_name
from repro.sim.runner import simulate
from tests.dram.reference_resets import LoopRegionCountTable, pop_each_row

GEOMETRY = DramGeometry()
ROWS = GEOMETRY.rows_per_bank
SLICE_ROWS = (1, 16, 1000, 4096, 16384, ROWS)
MAPPINGS = {"sequential": SequentialR2SA, "strided": StridedR2SA}
ALERT = MitigationSlotSource.ALERT
REF = MitigationSlotSource.REF
TABLES = {"oracle": "_counts", "prac": "_counters", "hydra": "_row_counts"}


# ----------------------------------------------------------------------
# Row-keyed tables: oracle, PRAC, Hydra
# ----------------------------------------------------------------------
class Component:
    """One interface over the oracle and the row-keyed trackers."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        if kind == "oracle":
            self.obj = RowActivationOracle()
        elif kind == "prac":
            self.obj = PracTracker(1000, alert_threshold=5)
        else:
            self.obj = HydraTracker(ROWS, rows_per_group=128,
                                    group_threshold=4,
                                    mitigation_threshold=8)

    @property
    def table(self) -> dict:
        return getattr(self.obj, TABLES[self.kind])

    def activate(self, row: int) -> None:
        if self.kind == "oracle":
            self.obj.on_activate(row)
        else:
            self.obj.on_activate(row, 0)

    def refresh(self, slice_: RefreshSlice) -> list:
        if self.kind == "oracle":
            self.obj.on_refresh(slice_)
            return []
        self.obj.on_ref_slice(slice_, 0)
        return (self.obj.on_mitigation_slot(0, REF)
                + self.obj.on_mitigation_slot(0, ALERT))

    def state(self):
        obj = self.obj
        extra = ()
        if self.kind == "oracle":
            extra = (obj.max_unmitigated, obj.max_row)
        elif self.kind == "prac":
            extra = (list(obj._over_threshold),)
        else:
            extra = (dict(obj._group_counts), list(obj._pending),
                     list(obj._rcc))
        return list(self.table.items()), extra


def _slices(rng: random.Random, mapping: RowToSubarrayMapping,
            count: int):
    """Slices of every size in SLICE_ROWS at random bank offsets."""
    for i in range(count):
        rows = SLICE_ROWS[i % len(SLICE_ROWS)]
        start = rng.randrange(ROWS - rows + 1)
        yield RefreshSlice(ref_index=i, physical_start=start,
                           physical_end=start + rows, mapping=mapping,
                           wraps_window=(i % 5 == 4))


@pytest.mark.parametrize("live", [40, 6000])
@pytest.mark.parametrize("mapping_kind", sorted(MAPPINGS))
@pytest.mark.parametrize("kind", ["oracle", "prac", "hydra"])
def test_row_table_reset_matches_per_row_pops(kind, mapping_kind, live):
    """``live`` rows per burst: 40 puts the table below most slices and
    6000 above the smaller ones, so both sides of the smaller-side
    switch run against the reference."""
    rng = random.Random(sum(map(ord, kind + mapping_kind)) + live)
    mapping = MAPPINGS[mapping_kind](GEOMETRY)
    fast, reference = Component(kind), Component(kind)
    sides = set()
    for slice_ in _slices(rng, mapping, 2 * len(SLICE_ROWS)):
        # Half the burst lands inside the coming slice, so resets bite,
        # and the rows just outside each bound must survive it.
        start, end = slice_.physical_start, slice_.physical_end
        inside = [mapping.logical_row(rng.randrange(start, end))
                  for _ in range(live // 2)]
        edges = [mapping.logical_row(p) for p in (start - 1, end)
                 if 0 <= p < ROWS]
        anywhere = [rng.randrange(ROWS) for _ in range(live // 2)]
        burst = edges + inside + anywhere
        for row in burst + burst[:live // 8] * 3:
            fast.activate(row)
            reference.activate(row)
        assert fast.state() == reference.state()
        sides.add(len(fast.table) < slice_.num_rows)
        assert fast.refresh(slice_) == reference.refresh(
            pop_each_row(slice_))
        assert fast.state() == reference.state()
    assert sides == {True, False}


def test_reset_rows_lists_no_rows_when_the_table_is_smaller():
    class Unlisted(SequentialR2SA):
        def logical_rows(self, start, end):
            raise AssertionError("walked the slice, not the table")

    slice_ = RefreshSlice(ref_index=0, physical_start=100,
                          physical_end=100 + 17, mapping=Unlisted())
    table = {row: 1 for row in (5, 100, 116, 117, 99, 3)}
    slice_.reset_rows(table)
    assert list(table) == [5, 117, 99, 3]


# ----------------------------------------------------------------------
# Region Count Table
# ----------------------------------------------------------------------
def _rct_pair(num_regions: int, policy: ResetPolicy):
    """Closed-form RCT and its loop reference, each counting resets in
    its own metrics registry."""
    pair = []
    for cls in (RegionCountTable, LoopRegionCountTable):
        with obs.collecting("metrics") as col:
            pair.append((cls(num_regions, 8, GEOMETRY, policy),
                         col.metrics.counter("rct.resets")))
    return pair


def _rct_state(rct: RegionCountTable, resets):
    return (rct._counters, rct._rrc, rct._refreshing_region,
            rct.filtered_acts, rct.escaped_acts, resets.value)


def _sweep(rng: random.Random, refs: int, num_regions: int,
           mapping: RowToSubarrayMapping):
    """Up to 300 consecutive REF slices of a ``refs``-REF window,
    starting just before a region boundary (possibly wrapping)."""
    scheduler = RefreshScheduler(GEOMETRY, mapping, refs_per_window=refs)
    size = ROWS // num_regions
    boundary = rng.randrange(num_regions) * size
    count = min(refs, 300)
    first = boundary // scheduler.rows_per_ref - count // 2
    return [scheduler.peek_slice((first + i) % refs) for i in range(count)]


def _arbitrary(rng: random.Random, mapping: RowToSubarrayMapping):
    """Slices of random bounds, not in sweep order."""
    out = []
    for i, rows in enumerate(SLICE_ROWS * 3):
        start = rng.randrange(ROWS - rows + 1)
        out.append(RefreshSlice(ref_index=i, physical_start=start,
                                physical_end=start + rows,
                                mapping=mapping))
    return out


@pytest.mark.parametrize("num_regions", [1, 4, 128, 1024])
@pytest.mark.parametrize("policy", list(ResetPolicy))
def test_rct_closed_form_reset_matches_region_loop(policy, num_regions):
    rng = random.Random(num_regions * 7 + len(policy.value))
    size = ROWS // num_regions
    (fast, fast_resets), (loop, loop_resets) = _rct_pair(num_regions,
                                                         policy)
    in_flight = 0
    for refs in (1, 8, 100, 1000, 8192, ROWS):
        for mapping in (SequentialR2SA(GEOMETRY), StridedR2SA(GEOMETRY)):
            slices = (_sweep(rng, refs, num_regions, mapping)
                      + _arbitrary(rng, mapping)[:2])
            for slice_ in slices:
                # ACTs around the slice and its nearest region edges.
                edge = (slice_.physical_start // size) * size
                rows = [min(ROWS - 1, max(0, base + rng.randrange(-3, 4)))
                        for base in (slice_.physical_start,
                                     slice_.physical_end - 1, edge,
                                     edge + size, rng.randrange(ROWS))
                        for _ in range(rng.randrange(0, 12))]
                assert [fast.on_activate(p) for p in rows] \
                    == [loop.on_activate(p) for p in rows]
                fast.on_ref_slice(slice_)
                loop.on_ref_slice(slice_)
                assert _rct_state(fast, fast_resets) \
                    == _rct_state(loop, loop_resets)
                in_flight += fast._refreshing_region is not None
    assert fast_resets.value > 0
    if policy is ResetPolicy.SAFE:
        assert in_flight > 0


def test_rct_reset_handles_an_empty_slice():
    (fast, fast_resets), (loop, loop_resets) = _rct_pair(
        128, ResetPolicy.SAFE)
    for rct in (fast, loop):
        rct.on_ref_slice(RefreshSlice(0, 0, 10, SequentialR2SA()))
        rct.on_ref_slice(RefreshSlice(1, ROWS, ROWS, SequentialR2SA()))
    assert _rct_state(fast, fast_resets) == _rct_state(loop, loop_resets)
    assert fast._refreshing_region == 0


# ----------------------------------------------------------------------
# End to end: whole-bank slices never list their rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("setup", ["baseline", "prac-1000",
                                   "mint-rfm-1000", "mirza-1000",
                                   "naive-mirza-1000"])
def test_scale_8192_refresh_never_lists_slice_rows(setup, monkeypatch):
    """At scale 8192 each REF sweeps the whole bank; every reset must
    go by the live rows, never by the slice's 131072 logical rows."""
    def refuse(self, start, end):
        raise AssertionError(f"listed logical rows [{start}, {end})")

    for cls in (RowToSubarrayMapping, SequentialR2SA, StridedR2SA):
        monkeypatch.setattr(cls, "logical_rows", refuse)
    scale = SimScale(8192)
    result = simulate("tc", setup_by_name(setup, scale), scale)
    assert result.total_activations > 0
