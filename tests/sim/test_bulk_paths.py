"""Seeded randomized equivalence of every list bulk path.

The array backend lands each deferred ACT run through a component's
bulk method (``on_activates``, ``observe_many``, ``activate_many``).
Each test drives identical random ACT streams through that bulk method
and through per-ACT stepping of the same component and demands exact
state equality -- the unit-level half of the array backend's
bit-identity contract (the system-level half is the 13-mitigation
sweep in ``test_backend.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import MirzaConfig
from repro.core.mint import MintSampler
from repro.core.mirza import MirzaTracker
from repro.core.rct import RegionCountTable
from repro.dram.bank import Bank, RowActivationOracle
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshSlice
from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.prac import PracTracker
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
# PRAC counters
# ----------------------------------------------------------------------
def _prac_state(t: PracTracker):
    return (t._counters, t._over_threshold, t._max_count,
            t.alert_slack(), t.wants_alert())


@pytest.mark.parametrize("seed", range(5))
def test_prac_bulk_path_matches_per_act(seed):
    stepped = PracTracker(200)
    bulk = PracTracker(200)
    for i, run in enumerate(_random_runs(seed, 12, (1, 400), 512)):
        for row in run:
            stepped.on_activate(row, now_ps=0)
        bulk.on_activates(run, [0] * len(run))
        assert _prac_state(stepped) == _prac_state(bulk)
        # Interleave the mitigation/REF events that reset counters.
        if i % 3 == 0:
            assert (stepped.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT)
                    == bulk.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT))
        if i % 4 == 0:
            slice_ = RefreshSlice(ref_index=i, physical_start=0,
                                  physical_end=64,
                                  mapping=SequentialR2SA())
            stepped.on_ref_slice(slice_, now_ps=0)
            bulk.on_ref_slice(slice_, now_ps=0)
        assert _prac_state(stepped) == _prac_state(bulk)


# ----------------------------------------------------------------------
# MINT sampler
# ----------------------------------------------------------------------
def _sampler_state(s: MintSampler):
    return (s._position, s._target, s.windows_completed, s.observed,
            s.selected)


@pytest.mark.parametrize("seed", range(5))
def test_mint_observe_many_matches_observe(seed):
    stepped = MintSampler(48, rng=random.Random(seed))
    bulk = MintSampler(48, rng=random.Random(seed))
    for run in _random_runs(seed, 20, (1, 200), 4096):
        expected = [r for r in run if stepped.observe(r) is not None]
        assert bulk.observe_many(run) == expected
        assert _sampler_state(stepped) == _sampler_state(bulk)


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


# ----------------------------------------------------------------------
# Oracle (and Bank bulk activate)
# ----------------------------------------------------------------------
def _oracle_state(o: RowActivationOracle):
    return (o._counts, o.max_unmitigated, o.max_row)


@pytest.mark.parametrize("seed", range(5))
def test_oracle_bulk_path_matches_per_act(seed):
    stepped = RowActivationOracle()
    bulk = RowActivationOracle()
    for i, run in enumerate(_random_runs(seed, 12, (1, 300), 256)):
        for row in run:
            stepped.on_activate(row)
        bulk.on_activates(run)
        assert _oracle_state(stepped) == _oracle_state(bulk)
        if i % 3 == 0:
            swept = RefreshSlice(ref_index=i, physical_start=0,
                                 physical_end=128, mapping=SequentialR2SA())
            stepped.on_refresh(swept)
            bulk.on_refresh(swept)
            assert _oracle_state(stepped) == _oracle_state(bulk)


def test_oracle_bulk_path_max_row_tie_breaks_by_arrival():
    """Rows 1 and 2 both finish at count 3; row 1 got there first."""
    stepped = RowActivationOracle()
    bulk = RowActivationOracle()
    rows = [1, 1, 2, 2, 1, 2]
    for row in rows:
        stepped.on_activate(row)
    bulk.on_activates(rows)
    assert _oracle_state(stepped) == _oracle_state(bulk)
    assert bulk.max_row == 1


def test_bank_activate_many_matches_per_act():
    stepped = Bank(0)
    bulk = Bank(0)
    rows = [7, 7, 9, 7, 12, 9]
    for row in rows:
        stepped.activate(row)
    bulk.activate_many(rows)
    assert stepped.open_row == bulk.open_row == 9
    assert stepped.total_activations == bulk.total_activations
    assert _oracle_state(stepped.oracle) == _oracle_state(bulk.oracle)


def test_bank_activate_many_validates_eagerly():
    """Unlike per-ACT stepping, no prefix of a bad run is applied."""
    bank = Bank(0)
    with pytest.raises(ValueError, match="out of range"):
        bank.activate_many([1, 2, bank.geometry.rows_per_bank])
    assert bank.total_activations == 0
    assert bank.open_row is None
    assert bank.oracle.max_unmitigated == 0


# ----------------------------------------------------------------------
# MINT tracker (DMQ) and the full MIRZA tracker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_mint_tracker_bulk_path_matches_per_act(seed):
    stepped = MintTracker(24, dmq_entries=2, rng=random.Random(seed))
    bulk = MintTracker(24, dmq_entries=2, rng=random.Random(seed))
    for i, run in enumerate(_random_runs(seed, 10, (1, 200), 1024)):
        for row in run:
            stepped.on_activate(row, now_ps=0)
        bulk.on_activates(run, [0] * len(run))
        assert stepped._pending == bulk._pending
        assert stepped.dropped_selections == bulk.dropped_selections
        if i % 2 == 0:
            assert (stepped.on_mitigation_slot(0, MitigationSlotSource.RFM)
                    == bulk.on_mitigation_slot(
                        0, MitigationSlotSource.RFM))


def _mirza_state(t: MirzaTracker):
    return (dict(t.queue._entries), t.rct._counters, t.acts_observed,
            _sampler_state(t.mint), t.rct.filtered_acts,
            t.rct.escaped_acts, t.wants_alert())


@pytest.mark.parametrize("seed", range(3))
def test_mirza_tracker_bulk_path_matches_per_act(seed):
    """Includes interleaved ALERT service and REF sweeps."""
    config = MirzaConfig.paper_config(1000).scaled(2048)
    geometry = DramGeometry()
    mapping = StridedR2SA(geometry)

    def build():
        return MirzaTracker(config, geometry, mapping,
                            rng=random.Random(seed))

    stepped, bulk = build(), build()
    runs = _random_runs(seed, 15, (1, 400), geometry.rows_per_bank,
                        hot_rows=4, hot_fraction=0.8)
    for i, run in enumerate(runs):
        times = list(range(len(run)))
        for row, now_ps in zip(run, times):
            stepped.on_activate(row, now_ps)
        bulk.on_activates(run, times)
        assert _mirza_state(stepped) == _mirza_state(bulk)
        if i % 3 == 0:
            assert (stepped.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT)
                    == bulk.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT))
        if i % 4 == 0:
            slice_ = RefreshSlice(
                ref_index=i, physical_start=0, physical_end=1024,
                mapping=mapping)
            stepped.on_ref_slice(slice_, now_ps=0)
            bulk.on_ref_slice(slice_, now_ps=0)
        assert _mirza_state(stepped) == _mirza_state(bulk)
