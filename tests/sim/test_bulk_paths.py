"""Seeded randomized equivalence of the counting pass's bulk paths.

``CgfJob`` lands each bank's buffered rows (one run per REF interval)
on every filter's :meth:`RegionCountTable.on_activates`, after mapping
them with ``physical_indices``.  The RCT tests drive identical random
ACT runs through that bulk method and through per-ACT stepping of the
same table and demand exact state equality; the mapping and slice
tests pin the bulk views against their scalar forms.
"""

from __future__ import annotations

import random

import pytest

from repro.core.rct import RegionCountTable
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshSlice
from repro.params import DramGeometry


def _random_runs(seed: int, runs: int, run_len, row_space: int,
                 hot_rows: int = 8, hot_fraction: float = 0.6):
    """Random ACT runs mixing a hot set (attack-like) with cold rows."""
    rng = random.Random(seed)
    hot = [rng.randrange(row_space) for _ in range(hot_rows)]
    out = []
    for _ in range(runs):
        n = run_len if isinstance(run_len, int) \
            else rng.randrange(*run_len)
        run = [hot[rng.randrange(hot_rows)]
               if rng.random() < hot_fraction
               else rng.randrange(row_space)
               for _ in range(n)]
        out.append(run)
    return out


# ----------------------------------------------------------------------
# RCT escape decisions
# ----------------------------------------------------------------------
def _rct_state(t: RegionCountTable):
    return (t._counters, t._rrc, t._refreshing_region,
            t.filtered_acts, t.escaped_acts)


def _rct_equivalence(num_regions: int, runs, slices=()) -> None:
    """Step and bulk-land ``runs``; apply ``slices[i]`` after run i."""
    geometry = DramGeometry()
    stepped = RegionCountTable(num_regions, 32, geometry)
    bulk = RegionCountTable(num_regions, 32, geometry)
    for i, run in enumerate(runs):
        expected = [stepped.on_activate(p) for p in run]
        assert bulk.on_activates(run) == expected
        assert _rct_state(stepped) == _rct_state(bulk)
        if i < len(slices) and slices[i] is not None:
            stepped.on_ref_slice(slices[i])
            bulk.on_ref_slice(slices[i])


@pytest.mark.parametrize("seed", range(5))
def test_rct_bulk_path_matches_per_act(seed):
    rows_per_bank = DramGeometry().rows_per_bank
    _rct_equivalence(
        128, _random_runs(seed, 12, (1, 500), rows_per_bank))


def test_rct_bulk_path_matches_per_act_in_edge_configs():
    """Sub-subarray regions need edge bumping on every ACT."""
    geometry = DramGeometry()
    assert geometry.rows_per_bank // 256 < geometry.rows_per_subarray
    region = geometry.rows_per_bank // 256
    # Rows at and next to region boundaries, plus interior rows.
    rows = [region * k + d for k in range(1, 16) for d in (-1, 0, 1)]
    _rct_equivalence(256, [rows * 20, rows[::-1] * 20])


def test_rct_bulk_path_matches_per_act_with_safe_sweep_in_flight():
    # A slice that begins (but does not finish) region 0's sweep, then
    # one that finishes it: the second run lands mid-sweep.
    begin = RefreshSlice(ref_index=0, physical_start=0, physical_end=10,
                         mapping=SequentialR2SA())
    region = DramGeometry().rows_per_bank // 128
    finish = RefreshSlice(ref_index=1, physical_start=10,
                          physical_end=region, mapping=SequentialR2SA())
    runs = [[1, 2, 3] * 20, [1, 2, region + 3] * 20, [4, 5] * 30]
    _rct_equivalence(128, runs, slices=(begin, finish))


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
