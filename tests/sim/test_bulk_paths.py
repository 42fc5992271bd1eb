"""Seeded randomized equivalence of the counting pass's block paths.

``CgfJob`` maps each bank's buffered rows once per mapping kind with
``physical_indices`` and lands them, a block of whole REF intervals at
a time, on one :meth:`RegionCountTable.on_block` per (mapping, region
count) scan, whose decision-count tally answers every FTH of the scan.
The RCT tests drive seeded random ACT streams through that block
method and through per-ACT :meth:`~RegionCountTable.on_activate`
stepping with an :meth:`~RegionCountTable.on_ref_slice` after every
interval, and demand exact state and metric equality at every block
boundary, and that the tally of one landing at a scan's largest FTH
gives the counts of a stepped table at each smaller one; the mapping
and slice tests pin the bulk views against their scalar forms.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import obs
from repro.core.rct import RegionCountTable, ResetPolicy
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshScheduler, RefreshSlice
from repro.experiments.common import CgfJob, RctFilter
from repro.obs import metrics
from repro.params import DramGeometry, SimScale
from repro.sim.profile import profiling
from repro.workloads.specs import workload_by_name

GEOMETRY = DramGeometry()
ROWS = GEOMETRY.rows_per_bank


# ----------------------------------------------------------------------
# RCT block landing
# ----------------------------------------------------------------------
def _stream(rng: random.Random, acts: int, span: int, num_regions: int):
    """ACTs within the first ``span`` rows: a hot set (attack-like),
    rows at and next to region boundaries (edge bumps), cold rows."""
    size = ROWS // num_regions
    hot = [rng.randrange(span) for _ in range(6)]
    edges = [b + d for b in range(size, span, size) for d in (-1, 0)]
    out = []
    for _ in range(acts):
        draw = rng.random()
        if draw < 0.5:
            out.append(hot[rng.randrange(len(hot))])
        elif draw < 0.7 and edges:
            out.append(edges[rng.randrange(len(edges))])
        else:
            out.append(rng.randrange(span))
    return out


def _table(num_regions: int, fth: int, policy: ResetPolicy):
    """An RCT counting into its own metrics registry."""
    with obs.collecting("metrics") as col:
        return RegionCountTable(num_regions, fth, GEOMETRY, policy), \
            col.metrics


def _state(table: RegionCountTable, registry: metrics.MetricsRegistry):
    return (list(table._counters), table._rrc, table._refreshing_region,
            table.filtered_acts, table.escaped_acts,
            [registry.counter(name).value
             for name in ("rct.filtered", "rct.escaped", "rct.resets")])


def _check_blocks(num_regions: int, fth: int, policy: ResetPolicy,
                  acts_per_ref: int, refs: int, block: int,
                  seed: int) -> int:
    """Land a seeded stream ``block`` intervals at a time and step it
    per ACT and slice; return how many block boundaries fell while a
    SAFE sweep was in flight."""
    sweep = RefreshScheduler(GEOMETRY, refs_per_window=refs)
    intervals = 60
    slices = [sweep.peek_slice(i) for i in range(intervals)]
    span = min(ROWS, intervals * sweep.rows_per_ref + 1024)
    rng = random.Random(seed)
    # A trailing partial interval after the last whole one.
    partial = rng.randrange(1, acts_per_ref) if acts_per_ref > 1 else 0
    rows = _stream(rng, intervals * acts_per_ref + partial, span,
                   num_regions)
    stepped, stepped_metrics = _table(num_regions, fth, policy)
    landed, landed_metrics = _table(num_regions, fth, policy)
    in_flight = 0
    for first in range(0, intervals + 1, block):
        block_slices = slices[first:first + block]
        block_rows = rows[first * acts_per_ref:
                          (first + len(block_slices)) * acts_per_ref]
        if len(block_slices) < block:
            block_rows = rows[first * acts_per_ref:]
        for k, slice_ in enumerate(block_slices):
            for p in block_rows[k * acts_per_ref:(k + 1) * acts_per_ref]:
                stepped.on_activate(p)
            stepped.on_ref_slice(slice_)
        for p in block_rows[len(block_slices) * acts_per_ref:]:
            stepped.on_activate(p)
        landed.on_block(block_rows, acts_per_ref,
                        [landed.slice_bounds(s) for s in block_slices])
        assert _state(landed, landed_metrics) \
            == _state(stepped, stepped_metrics), (first, block)
        in_flight += landed._refreshing_region is not None
    assert landed.filtered_acts + landed.escaped_acts == len(rows)
    return in_flight


@pytest.mark.parametrize("num_regions", [16, 128, 256, 1024])
@pytest.mark.parametrize("policy", list(ResetPolicy),
                         ids=lambda p: p.value)
def test_block_landing_matches_stepping(policy, num_regions):
    """FTH 0 and above, acts_per_ref 1 (blender's interval) and above,
    slices smaller and larger than a region, blocks of 1-7 intervals."""
    in_flight = 0
    cases = itertools.product((0, 1, 4), (1, 3, 22), (8192, 512, 437, 64))
    for seed, (fth, acts_per_ref, refs) in enumerate(cases):
        block = 1 + seed % 7
        in_flight += _check_blocks(num_regions, fth, policy, acts_per_ref,
                                   refs, block, seed)
    # Under SAFE some block ends inside a region's sweep: the next block
    # starts deciding on the RRC.
    assert (in_flight > 0) == (policy is ResetPolicy.SAFE)


@pytest.mark.parametrize("seed", range(12))
def test_block_landing_matches_stepping_randomized(seed):
    rng = random.Random(1000 + seed)
    _check_blocks(rng.choice([16, 64, 128, 256, 512, 1024]),
                  rng.choice([0, 1, 2, 5, 30]),
                  rng.choice(list(ResetPolicy)),
                  rng.choice([1, 2, 7, 22]),
                  rng.choice([8192, 2048, 512, 437, 64, 4]),
                  rng.randrange(1, 12), seed)


def test_block_with_safe_sweep_in_flight_decides_on_the_rrc():
    # A slice that begins (but does not finish) region 0's sweep, then
    # one that finishes it.  The first interval fills region 0 to FTH+1;
    # the second lands mid-sweep, so the RRC (full) decides, not the
    # reset entry, and it escapes while refilling the entry; once the
    # sweep ends the trailing ACTs read the refilled entry.
    begin = RefreshSlice(ref_index=0, physical_start=0, physical_end=10,
                         mapping=SequentialR2SA())
    region = ROWS // 128
    finish = RefreshSlice(ref_index=1, physical_start=10,
                          physical_end=region, mapping=SequentialR2SA())
    landed, _ = _table(128, 2, ResetPolicy.SAFE)
    landed.on_block([1] * 3 + [2] * 3 + [4] * 2, 3,
                    [landed.slice_bounds(begin),
                     landed.slice_bounds(finish)])
    assert (landed._rrc, landed._refreshing_region) == (3, None)
    assert landed._counters[0] == 3
    assert (landed.filtered_acts, landed.escaped_acts) == (3, 5)


@pytest.mark.parametrize("rows, acts_per_ref, slices", [
    ([1] * 4, 2, 1),   # a whole interval without its slice
    ([1] * 2, 2, 2),   # a slice without its interval
    ([1] * 3, 0, 0),   # no interval length
])
def test_block_shape_is_checked(rows, acts_per_ref, slices):
    slice_ = RefreshSlice(ref_index=0, physical_start=0, physical_end=16,
                          mapping=SequentialR2SA())
    table, _ = _table(128, 2, ResetPolicy.SAFE)
    with pytest.raises(ValueError, match="whole intervals"):
        table.on_block(rows, acts_per_ref,
                       [table.slice_bounds(slice_)] * slices)


# ----------------------------------------------------------------------
# One scan per (mapping, region count): the decision-count tally
# ----------------------------------------------------------------------
def _check_tally(num_regions: int, fths, policy: ResetPolicy,
                 acts_per_ref: int, refs: int, block: int,
                 seed: int) -> int:
    """Land a seeded stream ``block`` intervals at a time on one table
    at the largest of ``fths``, tallying, and step one table per FTH
    per ACT and slice; at every block boundary the tally must give each
    stepped table's filtered and escaped counts, and the landed table
    must equal the stepped one at its own FTH.  Return how many block
    boundaries fell while a SAFE sweep was in flight."""
    sweep = RefreshScheduler(GEOMETRY, refs_per_window=refs)
    intervals = 60
    slices = [sweep.peek_slice(i) for i in range(intervals)]
    span = min(ROWS, intervals * sweep.rows_per_ref + 1024)
    rng = random.Random(seed)
    partial = rng.randrange(1, acts_per_ref) if acts_per_ref > 1 else 0
    rows = _stream(rng, intervals * acts_per_ref + partial, span,
                   num_regions)
    top = max(fths)
    landed, landed_metrics = _table(num_regions, top, policy)
    stepped = {fth: _table(num_regions, fth, policy) for fth in fths}
    tally = [0] * (top + 2)
    in_flight = 0
    for first in range(0, intervals + 1, block):
        block_slices = slices[first:first + block]
        end = (first + len(block_slices)) * acts_per_ref
        if len(block_slices) < block:
            end = len(rows)
        block_rows = rows[first * acts_per_ref:end]
        for table, _ in stepped.values():
            for k, slice_ in enumerate(block_slices):
                for p in block_rows[k * acts_per_ref:
                                    (k + 1) * acts_per_ref]:
                    table.on_activate(p)
                table.on_ref_slice(slice_)
            for p in block_rows[len(block_slices) * acts_per_ref:]:
                table.on_activate(p)
        landed.on_block(block_rows, acts_per_ref,
                        [landed.slice_bounds(s) for s in block_slices],
                        tally)
        assert _state(landed, landed_metrics) == _state(*stepped[top])
        for fth, (table, _) in stepped.items():
            assert (sum(tally[:fth + 1]), sum(tally[fth + 1:])) \
                == (table.filtered_acts, table.escaped_acts), (first, fth)
        in_flight += landed._refreshing_region is not None
    assert sum(tally) == len(rows)
    return in_flight


@pytest.mark.parametrize("num_regions", [16, 128, 256, 1024])
@pytest.mark.parametrize("policy", list(ResetPolicy),
                         ids=lambda p: p.value)
def test_tally_at_the_largest_fth_answers_every_smaller_one(
        policy, num_regions):
    """FTH 0 included, slices smaller and larger than a region, edge
    bumps (256 and 1024 regions are smaller than a subarray), blocks of
    1-7 intervals that end mid-sweep under SAFE."""
    in_flight = 0
    cases = itertools.product(((0, 1, 4), (0, 2, 9, 30), (3, 7)),
                              (1, 3, 22), (8192, 512, 437, 64))
    for seed, (fths, acts_per_ref, refs) in enumerate(cases):
        in_flight += _check_tally(num_regions, fths, policy, acts_per_ref,
                                  refs, 1 + seed % 7, 500 + seed)
    assert (in_flight > 0) == (policy is ResetPolicy.SAFE)


@pytest.mark.parametrize("seed", range(8))
def test_tally_answers_every_fth_randomized(seed):
    rng = random.Random(2000 + seed)
    _check_tally(rng.choice([16, 64, 128, 256, 512, 1024]),
                 sorted(rng.sample(range(40), 4)),
                 rng.choice(list(ResetPolicy)),
                 rng.choice([1, 2, 7, 22]),
                 rng.choice([8192, 2048, 512, 437, 64, 4]),
                 rng.randrange(1, 12), seed)


def test_tally_is_sized_for_the_table_fth():
    slice_ = RefreshSlice(ref_index=0, physical_start=0, physical_end=16,
                          mapping=SequentialR2SA())
    table, _ = _table(128, 5, ResetPolicy.SAFE)
    with pytest.raises(ValueError, match="needs 7 entries; got 6"):
        table.on_block([1, 2], 2, [table.slice_bounds(slice_)], [0] * 6)
    assert table.filtered_acts == table.escaped_acts == 0


def test_scan_at_fth_10000_answers_fth_0_like_single_jobs():
    # Two filters of one (mapping, region count) are one scan at FTH
    # 10,000, whose counters never saturate; FTH 0 reads its tally.
    spec = workload_by_name("tc")
    scale = SimScale(256)
    pair = CgfJob(spec, (RctFilter("strided", 0),
                         RctFilter("strided", 10_000)), scale=scale)
    with profiling() as prof:
        counts = pair.execute()
    assert (prof.counting_filters, prof.counting_scans) == (2, 1)
    assert counts.cgf == tuple(
        CgfJob.single(spec, "strided", fth, scale=scale).execute().cgf[0]
        for fth in (0, 10_000))
    assert counts.cgf[0].escaped > 0 and counts.cgf[1].escaped == 0


# ----------------------------------------------------------------------
# Row-to-subarray mappings and refresh slices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mapping_cls", [SequentialR2SA, StridedR2SA])
def test_mapping_bulk_views_match_scalar(mapping_cls):
    geometry = DramGeometry()
    mapping = mapping_cls(geometry)
    rng = random.Random(3)
    rows = [rng.randrange(geometry.rows_per_bank) for _ in range(500)]
    assert mapping.physical_indices(rows) \
        == [mapping.physical_index(r) for r in rows]
    start, end = 8192 - 100, 8192 + 1024
    assert mapping.logical_rows(start, end) \
        == [mapping.logical_row(p) for p in range(start, end)]


def test_refresh_slice_logical_rows_follow_the_mapping():
    mapping = StridedR2SA(DramGeometry())
    slice_ = RefreshSlice(ref_index=0, physical_start=1000,
                          physical_end=1100, mapping=mapping)
    assert slice_.num_rows == 100
    assert slice_.logical_rows == mapping.logical_rows(1000, 1100)
    assert slice_.logical_rows is slice_.logical_rows  # cached
