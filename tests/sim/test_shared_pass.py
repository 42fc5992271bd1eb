"""Lockstep tests for shared baseline passes.

A key's pending baseline and its ALERT-only ``SimJob``\\ s run as one
:class:`~repro.sim.session.SharedPass`: the baseline kernel runs once
with every rider's trackers following it passively, a rider that would
raise an ALERT (or mitigate at a REF) diverges and runs on its own, and
every other rider reads its result off the baseline's.  Each of those
results must equal the rider's standalone ``SimJob.execute()`` on every
``SimResult`` field.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro.core.config import MirzaConfig
from repro.experiments.common import DEFAULT_SUBSET
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.params import SimScale
from repro.sim.profile import profiling
from repro.sim.registry import available_setups, setup_by_name
from repro.dram.device import Riders
from repro.sim.runner import (
    MitigationSetup,
    baseline_setup,
    mirza_setup,
    naive_mirza_setup,
    simulate_shared,
)
from repro.sim.session import SharedPass, SimJob, SimSession, job_token

TABLE9_POINTS = [(4, 1820), (8, 1660), (12, 1500), (16, 1350)]

TABLE5_GRID = [naive_mirza_setup(window, queue_entries=entries)
               for window in (24, 48, 96) for entries in (1, 2, 4, 8)]
"""Table V's naive-MIRZA cells: three families of four queue sizes."""


def alert_only_setups(scale: SimScale) -> List[MitigationSetup]:
    """Every ALERT-only registry setup, Table IX's MIRZA configs and
    Table V's naive-MIRZA grid."""
    setups = [setup_by_name(name, scale) for name in available_setups()
              if setup_by_name(name, scale).alert_only]
    setups += [mirza_setup(1000, scale, config=MirzaConfig(
        trhd=1000, fth=fth, mint_window=window, num_regions=128))
        for window, fth in TABLE9_POINTS]
    return setups + TABLE5_GRID


def test_alert_only_predicate():
    scale = SimScale(2048)
    riding = {name for name in available_setups()
              if setup_by_name(name, scale).alert_only}
    assert riding == {f"{family}-{trhd}" for family in ("mirza",
                                                        "naive-mirza")
                      for trhd in (500, 1000, 2000)}
    assert not baseline_setup().alert_only


@pytest.mark.parametrize("time_scale, served, diverged",
                         [(8192, 87, 21), (2048, 77, 31)],
                         ids=["8192", "2048"])
def test_every_cell_equals_its_standalone_run(time_scale, served,
                                              diverged):
    scale = SimScale(time_scale)
    setups = alert_only_setups(scale)
    jobs = [SimJob(name, setup, scale) for name in DEFAULT_SUBSET
            for setup in [baseline_setup()] + setups]
    standalone = [job.execute() for job in jobs]
    with profiling() as prof:
        results = SimSession(disk_cache=False).run_many(jobs)
    assert results == standalone
    # One rider per distinct job (a Table IX point can equal a
    # registry setup, and naive-mirza-500 is Table V's W=24, Q=4).
    riders = {job_token(job): result
              for job, result in zip(jobs, standalone)
              if job.setup.alert_only}
    # A rider diverges exactly when its own run raised an ALERT (or
    # mitigated): no pass-served cell hid one, and no rider left early.
    acted = sum(1 for result in riders.values()
                if sum(result.alerts) or result.mitigations)
    assert prof.shared_passes == len(DEFAULT_SUBSET)
    assert (prof.riders, prof.riders_diverged) \
        == (len(riders) - acted, acted) == (served, diverged)
    assert prof.runs == len(DEFAULT_SUBSET) + acted
    # Per pass: three registry MIRZA riders, the three Table IX points
    # that are not one of them, and one family per Table V window.
    assert prof.rider_sets == len(DEFAULT_SUBSET) * (3 + 3 + 3)


@dataclasses.dataclass
class LateAlertTracker(BankTracker):
    """Wants one ALERT once its bank has seen ``after`` activations."""

    after: int
    acts: int = 0
    last_row: int = 0
    pending: bool = False

    def on_activate(self, row: int, now_ps: int) -> None:
        self.acts += 1
        self.last_row = row
        if self.acts == self.after:
            self.pending = True

    def wants_alert(self) -> bool:
        return self.pending

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is not MitigationSlotSource.ALERT or not self.pending:
            return []
        self.pending = False
        return [self.last_row]


@dataclasses.dataclass(frozen=True)
class LateAlertFactory:
    after: int

    def __call__(self, seed: int, subch: int, bank: int) -> BankTracker:
        return LateAlertTracker(self.after)


def test_mid_window_divergence_falls_back_to_a_plain_run():
    scale = SimScale(2048)
    baseline = SimJob("tc", baseline_setup(), scale).execute()
    # Half a mean bank's ACTs: the first ALERT lands mid-window.
    banks = baseline.config.geometry.total_banks
    after = baseline.total_activations // banks // 2
    late = MitigationSetup(name="late-alert",
                           tracker_factory=LateAlertFactory(after))
    mirza = setup_by_name("mirza-1000", scale)
    assert late.alert_only
    jobs = [SimJob("tc", setup, scale)
            for setup in (baseline_setup(), late, mirza)]
    standalone = [job.execute() for job in jobs]
    assert sum(standalone[1].alerts) >= 1
    assert standalone[1].ipc != baseline.ipc

    base, riders = simulate_shared("tc", [late, mirza], scale)
    assert base == baseline
    # The late rider left; MIRZA kept riding after it did.
    assert riders == [None, standalone[2]]

    with profiling() as prof:
        session = SimSession(disk_cache=False)
        assert session.run_many(jobs) == standalone
    assert (prof.shared_passes, prof.riders, prof.riders_diverged,
            prof.runs) == (1, 1, 1, 2)
    batch = session.last_batch
    assert (batch.submitted, batch.unique, batch.computed,
            batch.retried) == (3, 3, 3, 0)


def test_passes_form_per_key_and_come_first():
    scale = SimScale(8192)
    mirza = setup_by_name("mirza-1000", scale)
    prac = setup_by_name("prac-1000", scale)
    jobs = [SimJob("tc", mirza, scale), SimJob("tc", prac, scale),
            SimJob("tc", baseline_setup(), scale),
            SimJob("mcf", mirza, scale)]  # no mcf baseline: plain
    unique = [(str(index), job.resolved())
              for index, job in enumerate(jobs)]
    work = SimSession._shared_passes(unique)
    assert [token for token, _ in work] == ["pass:2", "1", "3"]
    shared = work[0][1]
    assert isinstance(shared, SharedPass)
    assert shared.tokens == ("2", "0")
    assert shared.riders[0].setup == mirza


def test_observed_batches_run_plain(monkeypatch):
    scale = SimScale(8192)
    unique = [(str(index), SimJob("tc", setup, scale).resolved())
              for index, setup in enumerate(
                  (baseline_setup(), setup_by_name("mirza-1000", scale)))]
    assert isinstance(SimSession._shared_passes(unique)[0][1], SharedPass)
    for knob in ("REPRO_METRICS", "REPRO_TRACE", "REPRO_SPANS"):
        with monkeypatch.context() as patch:
            patch.setenv(knob, "1")
            assert SimSession._shared_passes(unique) == unique, knob


def _record_alerts(monkeypatch) -> list:
    """Log every family ALERT poll of a pass: the host's ACTs so far,
    the members left before and after, and the polled queue."""
    calls = []
    alert = Riders.alert

    def logged(riders, s, tracker):
        before = [rider for rider, _ in riders.members[s]]
        alert(riders, s, tracker)
        queue = tracker.queue
        calls.append((sum(device.stats.activations
                          for device in riders.devices),
                      before, [rider for rider, _ in riders.members[s]],
                      len(queue), max(queue._entries.values(), default=0)))
    monkeypatch.setattr(Riders, "alert", logged)
    return calls


def test_small_queues_leave_a_family_that_keeps_riding(monkeypatch):
    scale = SimScale(2048)
    family = [naive_mirza_setup(24, queue_entries=entries)
              for entries in (8, 1, 2)]
    standalone = [SimJob("tc", setup, scale).execute()
                  for setup in [baseline_setup()] + family]
    assert [sum(result.alerts) > 0 for result in standalone[1:]] \
        == [False, True, True]
    calls = _record_alerts(monkeypatch)
    with profiling() as prof:
        base, riders = simulate_shared("tc", family, scale)
    assert base == standalone[0]
    assert riders == [standalone[1], None, None]
    assert prof.rider_sets == 1
    # Q=1 leaves at its first full queue and Q=2 later, at its own,
    # both inside the window; Q=8 rides the rest of it.
    (acts_1, before_1, after_1, length_1, _), \
        (acts_2, before_2, after_2, length_2, _) = calls
    assert (before_1, after_1, length_1) == ([1, 2, 0], [2, 0], 1)
    assert (before_2, after_2, length_2) == ([2, 0], [0], 2)
    assert 0 < acts_1 < acts_2 < base.total_activations


def test_a_tardy_entry_sends_the_whole_family_away(monkeypatch):
    # QTH 1: a queued row's next ACT makes it tardy, long before any
    # of these queues fills.
    scale = SimScale(2048)
    family = [naive_mirza_setup(24, queue_entries=entries, qth=1)
              for entries in (16, 32, 64)]
    standalone = [SimJob("tc", setup, scale).execute()
                  for setup in family]
    assert all(sum(result.alerts) for result in standalone)
    calls = _record_alerts(monkeypatch)
    base, riders = simulate_shared("tc", family, scale)
    assert riders == [None, None, None]
    [(acts, before, after, length, tardiness)] = calls
    assert (before, after) == ([0, 1, 2], [])
    assert length < 16 and tardiness > 1
    assert 0 < acts < base.total_activations
