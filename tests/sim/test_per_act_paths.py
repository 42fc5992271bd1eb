"""Seeded per-ACT stepping against plain models of each policy.

The kernel drives every component one ACT at a time: the bank and its
row oracle, then the bank's tracker.  Each test feeds a seeded random
ACT stream, interleaved with the REF sweeps and mitigation slots that
reset state, through the real component and through the plainest model
of its policy, and demands equal state after every run of ACTs.  The
models restate each policy from its definition (counts since the last
reset, one random pick per MINT window, the three paths an ACT takes
in MIRZA) instead of reusing the component's bookkeeping.  The one
exception is MIRZA's region filter: its model takes escape decisions
from the region-loop reference RCT, which ``test_refresh_reset.py``
checks against the real table.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import MirzaConfig
from repro.core.mint import MintSampler
from repro.core.mirza import MirzaTracker
from repro.core.rct import ResetPolicy
from repro.dram.bank import Bank, RowActivationOracle
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshSlice
from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.prac import PracTracker
from repro.params import DramGeometry
from tests.dram.reference_resets import LoopRegionCountTable
from tests.sim.test_bulk_paths import _random_runs

ALERT = MitigationSlotSource.ALERT
REF = MitigationSlotSource.REF
RFM = MitigationSlotSource.RFM


def _sequential_slice(ref_index: int, start: int, end: int) -> RefreshSlice:
    return RefreshSlice(ref_index=ref_index, physical_start=start,
                        physical_end=end, mapping=SequentialR2SA())


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
class OracleModel:
    """ACTs per row since its last reset; the first row to reach the
    highest count ever seen."""

    def __init__(self):
        self.counts = {}
        self.peak = 0
        self.peak_row = None

    def activate(self, row):
        self.counts[row] = self.counts.get(row, 0) + 1
        if self.counts[row] > self.peak:
            self.peak, self.peak_row = self.counts[row], row
        return self.counts[row]

    def reset(self, rows):
        for row in rows:
            self.counts.pop(row, None)


class SamplerModel:
    """Window ``k`` picks its ACT at an offset drawn from ``rng`` as the
    window opens."""

    def __init__(self, window, rng):
        self.window = window
        self.rng = rng
        self.seen = 0
        self.picks = 0
        self.offset = rng.randrange(window)

    def observe(self, row):
        picked = self.seen % self.window == self.offset
        self.seen += 1
        self.picks += picked
        if self.seen % self.window == 0:
            self.offset = self.rng.randrange(self.window)
        return picked


class PracModel:
    """One counter per row since its last reset; a row queues for ALERT,
    oldest first, each time its counter reaches the threshold."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.counts = {}
        self.queue = []

    def activate(self, row):
        self.counts[row] = self.counts.get(row, 0) + 1
        if self.counts[row] == self.threshold:
            self.queue.append(row)

    def alert(self):
        if not self.queue:
            return []
        row = self.queue.pop(0)
        self.counts.pop(row, None)
        return [row]

    def refresh(self, rows):
        for row in rows:
            self.counts.pop(row, None)


class MintModel:
    """Selections wait in a FIFO of ``entries`` that drops its oldest on
    overflow; an RFM or ALERT slot, or every ``every``-th REF slot when
    ``every`` is set, mitigates the oldest."""

    def __init__(self, window, every, entries, rng):
        self.sampler = SamplerModel(window, rng)
        self.every = every
        self.entries = entries
        self.pending = []
        self.dropped = 0
        self.refs = 0

    def activate(self, row):
        if self.sampler.observe(row):
            if len(self.pending) == self.entries:
                self.pending.pop(0)
                self.dropped += 1
            self.pending.append(row)

    def slot(self, source):
        if source is REF:
            if not self.every:
                return []
            self.refs += 1
            if self.refs % self.every:
                return []
        return [self.pending.pop(0)] if self.pending else []


class MirzaModel:
    """Section V-B: every ACT bumps its RCT region; a queued row's
    tardiness grows; otherwise an ACT that escaped the RCT takes part in
    MINT's draw, and a selected row joins the queue if it has room.
    ALERT is due when the queue is full or a tardiness exceeds QTH, and
    evicts the highest tardiness, lowest row first on ties."""

    def __init__(self, config, geometry, mapping, rng, policy):
        self.rct = LoopRegionCountTable(config.num_regions, config.fth,
                                        geometry, policy)
        self.mapping = mapping
        self.sampler = SamplerModel(config.mint_window, rng)
        self.capacity = config.queue_entries
        self.qth = config.qth
        self.queue = {}
        self.dropped = 0

    def activate(self, row):
        escaped = self.rct.on_activate(self.mapping.physical_index(row))
        if row in self.queue:
            self.queue[row] += 1
        elif escaped and self.sampler.observe(row):
            if len(self.queue) < self.capacity:
                self.queue[row] = 1
            else:
                self.dropped += 1

    def wants_alert(self):
        return (len(self.queue) >= self.capacity
                or any(t > self.qth for t in self.queue.values()))

    def alert(self):
        if not self.queue:
            return []
        top = max(self.queue.values())
        row = min(r for r, t in self.queue.items() if t == top)
        del self.queue[row]
        return [row]


# ----------------------------------------------------------------------
# Oracle and bank
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_oracle_matches_model(seed):
    """Interleaves REF slices and victim refreshes of an aggressor."""
    oracle = RowActivationOracle()
    model = OracleModel()
    rng = random.Random(seed + 1000)
    for i, run in enumerate(_random_runs(seed, 12, (1, 300), 256)):
        for row in run:
            assert oracle.on_activate(row) == model.activate(row)
        if i % 3 == 0:
            swept = _sequential_slice(i, 0, 128)
            oracle.on_refresh(swept)
            model.reset(swept.logical_rows)
        if i % 4 == 1:
            aggressor = rng.choice(run)
            oracle.on_mitigation(aggressor)
            model.reset([aggressor])
        assert {r: oracle.count(r) for r in range(256)} \
            == {r: model.counts.get(r, 0) for r in range(256)}
        assert oracle.max_unmitigated == model.peak
        assert oracle.max_row == model.peak_row
        assert oracle.current_max() == max(model.counts.values(),
                                           default=0)


def test_oracle_max_row_tie_breaks_by_arrival():
    """Rows 1 and 2 both finish at count 3; row 1 got there first."""
    oracle = RowActivationOracle()
    for row in [1, 1, 2, 2, 1, 2]:
        oracle.on_activate(row)
    assert (oracle.max_unmitigated, oracle.max_row) == (3, 1)
    oracle.on_row_refreshed(1)
    for _ in range(3):
        oracle.on_activate(2)
    assert (oracle.max_unmitigated, oracle.max_row) == (6, 2)


def test_bank_activate_steps_open_row_and_oracle():
    bank = Bank(0)
    model = OracleModel()
    for row in [7, 7, 9, 7, 12, 9]:
        bank.activate(row)
        model.activate(row)
        assert bank.open_row == row
    assert bank.total_activations == 6
    assert {r: bank.oracle.count(r) for r in (7, 9, 12)} == model.counts
    assert (bank.oracle.max_unmitigated, bank.oracle.max_row) \
        == (model.peak, model.peak_row) == (3, 7)


def test_bank_rejects_out_of_range_row_before_any_update():
    bank = Bank(0)
    bank.activate(5)
    with pytest.raises(ValueError, match="out of range"):
        bank.activate(bank.geometry.rows_per_bank)
    assert bank.open_row == 5
    assert bank.total_activations == 1
    assert bank.oracle.count(5) == bank.oracle.max_unmitigated == 1


# ----------------------------------------------------------------------
# PRAC counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_prac_matches_model(seed):
    """A low alert threshold makes the hot rows cross it repeatedly."""
    tracker = PracTracker(200, alert_threshold=48)
    model = PracModel(48)
    served = 0
    for i, run in enumerate(_random_runs(seed, 12, (1, 400), 512)):
        for row in run:
            tracker.on_activate(row, now_ps=0)
            model.activate(row)
        assert tracker.wants_alert() == bool(model.queue)
        if i % 3 == 0:
            rows = tracker.on_mitigation_slot(0, ALERT)
            assert rows == model.alert()
            served += len(rows)
        assert tracker.on_mitigation_slot(0, REF) == []
        if i % 4 == 0:
            swept = _sequential_slice(i, 0, 64)
            tracker.on_ref_slice(swept, now_ps=0)
            model.refresh(swept.logical_rows)
        assert {r: c for r, c in tracker._counters.items() if c} \
            == model.counts
        assert tracker.max_counter() == max(model.counts.values(),
                                            default=0)
        assert tracker.wants_alert() == bool(model.queue)
    assert served > 0


# ----------------------------------------------------------------------
# MINT sampler and the MINT+RFM tracker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_mint_sampler_matches_model(seed):
    sampler = MintSampler(48, rng=random.Random(seed))
    model = SamplerModel(48, random.Random(seed))
    for run in _random_runs(seed, 20, (1, 200), 4096):
        expected = [row for row in run if model.observe(row)]
        assert [row for row in run
                if sampler.observe(row) is not None] == expected
        assert sampler.observed == model.seen
        assert sampler.selected == model.picks
        assert sampler.windows_completed == model.seen // 48
    assert model.picks >= model.seen // 48 > 0


@pytest.mark.parametrize("refs_per_mitigation", [0, 3])
@pytest.mark.parametrize("seed", range(3))
def test_mint_tracker_matches_model(seed, refs_per_mitigation):
    tracker = MintTracker(24, refs_per_mitigation=refs_per_mitigation,
                          dmq_entries=2, rng=random.Random(seed))
    model = MintModel(24, refs_per_mitigation, 2, random.Random(seed))
    sources = (RFM, REF, REF, ALERT)
    for i, run in enumerate(_random_runs(seed, 12, (1, 200), 1024)):
        for row in run:
            tracker.on_activate(row, now_ps=0)
            model.activate(row)
        assert tracker._pending == model.pending
        assert tracker.dropped_selections == model.dropped
        source = sources[i % len(sources)]
        assert tracker.on_mitigation_slot(0, source) == model.slot(source)
    assert model.dropped > 0


# ----------------------------------------------------------------------
# The full MIRZA tracker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", list(ResetPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("seed", range(3))
def test_mirza_tracker_matches_model(seed, policy):
    """Even runs serve an ALERT as soon as one is due, so the QTH
    boundary decides when; odd runs let the queue fill and drop
    selections.  Every third run drains the queue, where fresh entries
    tie at tardiness 1.  REF slices of 768 rows leave regions mid-sweep
    between runs, so the SAFE policy's refreshed-region counter is in
    play."""
    config = MirzaConfig.paper_config(1000).scaled(2048)
    geometry = DramGeometry()
    mapping = StridedR2SA(geometry)
    tracker = MirzaTracker(config, geometry, mapping,
                           rng=random.Random(seed), reset_policy=policy)
    model = MirzaModel(config, geometry, mapping, random.Random(seed),
                       policy)
    runs = _random_runs(seed, 15, (1, 400), geometry.rows_per_bank,
                        hot_rows=4, hot_fraction=0.8)
    ref_ptr = 0
    for i, run in enumerate(runs):
        for now_ps, row in enumerate(run):
            tracker.on_activate(row, now_ps)
            model.activate(row)
            due = tracker.wants_alert()
            assert due == model.wants_alert()
            if due and i % 2 == 0:
                assert tracker.on_mitigation_slot(now_ps, ALERT) \
                    == model.alert()
        assert dict(tracker.queue._entries) == model.queue
        assert tracker.queue.dropped_insertions == model.dropped
        assert tracker.mint.observed == model.sampler.seen
        assert (tracker.rct.filtered_acts, tracker.rct.escaped_acts) \
            == (model.rct.filtered_acts, model.rct.escaped_acts)
        assert tracker.acts_observed == model.rct.filtered_acts \
            + model.rct.escaped_acts
        assert tracker.on_mitigation_slot(0, REF) == []
        if i % 3 == 0:
            while model.queue:
                assert tracker.on_mitigation_slot(0, ALERT) \
                    == model.alert()
            assert tracker.on_mitigation_slot(0, ALERT) == []
        if i % 2 == 0:
            swept = RefreshSlice(ref_index=i, physical_start=ref_ptr,
                                 physical_end=ref_ptr + 768,
                                 mapping=mapping)
            ref_ptr += 768
            tracker.on_ref_slice(swept, now_ps=0)
            model.rct.on_ref_slice(swept)
        assert tracker.rct._counters == model.rct._counters
        assert tracker.wants_alert() == model.wants_alert()
    assert tracker.queue.evictions > 0
    assert model.dropped > 0
