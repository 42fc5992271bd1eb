"""Lockstep tests for the one request loop, from core to bus.

``MemoryController.serve_timing`` schedules a request in one tight
loop, and ``MultiCoreSystem.drive`` keeps each core's bookkeeping
inline.  ``tests/mc/reference_controller.py`` keeps the request path
they replaced, method for method.  These tests drive both with the same
seeded request streams and require equal answers and equal controller,
bank, tFAW, bus, stall and device state after every request; both
command logs must pass the timing validator.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro import obs
from repro.cpu.system import MultiCoreSystem
from repro.dram.device import DramDevice
from repro.mc.controller import MemoryController
from repro.mc.drfm import DrfmEngine
from repro.mc.validator import CommandLog, TimingValidator
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.naive_mirza import NaiveMirzaTracker
from repro.mitigations.prac import PracTracker
from repro.params import (
    DramGeometry,
    DramTimings,
    SimScale,
    SystemConfig,
    ns,
)
from repro.sim.runner import (
    baseline_setup,
    calibrated_workload,
    mirza_setup,
    naive_mirza_setup,
)

from tests.mc.reference_controller import (
    ReferenceController,
    ReferenceSystem,
)

GEOMETRY = DramGeometry(banks_per_subchannel=8, subchannels=1,
                        rows_per_bank=4096, rows_per_subarray=1024,
                        rows_per_ref=16)
CONFIG = SystemConfig(geometry=GEOMETRY, num_cores=2)

Request = Tuple[int, int, int]


def requests(seed: int, count: int, banks: int = 8, rows: int = 4096,
             bad_at: Optional[int] = None) -> List[Request]:
    """``count`` ``(bank, row, arrival)`` requests with monotone arrivals.

    Rows come from a few hot rows per bank (hits and conflicts) or
    anywhere; gaps mix back-to-back bursts (tFAW, bus contention),
    short and long ones (auto-closed rows, REFs).  Request ``bad_at``
    names a row past the bank.
    """
    rng = random.Random(seed)
    hot = [[rng.randrange(rows) for _ in range(3)] for _ in range(banks)]
    out = []
    arrival = 0
    for index in range(count):
        bank = rng.randrange(banks)
        row = rng.choice(hot[bank]) if rng.random() < 0.7 \
            else rng.randrange(rows)
        if index == bad_at:
            row = rows + 5
        out.append((bank, row, arrival))
        gap = rng.random()
        if gap < 0.3:
            arrival += 0
        elif gap < 0.8:
            arrival += rng.randrange(ns(20))
        elif gap < 0.97:
            arrival += rng.randrange(ns(200))
        else:
            arrival += rng.randrange(ns(4000))
    return out


def _state(mc: MemoryController) -> tuple:
    """Everything one request can change, controller and device."""
    device = mc.device
    drfm = mc.drfm
    return (
        list(mc._open_row), list(mc._row_close_at), mc._next_ref,
        mc.total_requests, mc.total_activations, mc.row_hits,
        [(bank._last_act, bank._precharge_done, bank._blocked_until)
         for bank in mc.banks],
        list(mc.faw._times), list(mc.bus._slots), mc.bus.busy_time,
        mc.abo.stalls.windows, mc.abo.stalls.total_stall,
        mc.abo.alerts_asserted, mc.abo._acts_since_alert,
        mc.abo._last_stall_end,
        mc.rfm.rfms_issued, list(mc.rfm._counters),
        None if drfm is None else (drfm.drfms_issued, drfm.deferrals,
                                   drfm._acts_since_drfm,
                                   dict(drfm._samples)),
        dataclasses.asdict(device.stats), sorted(device.alerting_banks),
        [(bank.total_activations, bank.total_mitigations,
          dict(bank.oracle._counts), bank.oracle._max_seen)
         for bank in device.banks],
    )


@dataclasses.dataclass(frozen=True)
class Case:
    """One controller configuration to drive both paths with."""

    name: str
    timings: DramTimings = DramTimings()
    tracker: Optional[Callable[[int], object]] = None
    rfm_bat: Optional[int] = None
    drfm: bool = False
    rowpress: bool = False

    def build(self, cls) -> MemoryController:
        config = dataclasses.replace(CONFIG, timings=self.timings)
        device = DramDevice(config, self.tracker)
        drfm = DrfmEngine(GEOMETRY.banks_per_subchannel, sample_window=8,
                          acts_per_drfm=16, rng=random.Random(5)) \
            if self.drfm else None
        return cls(config, device, self.rfm_bat, command_log=CommandLog(),
                   rowpress_to_acts=self.rowpress, drfm=drfm)


CASES = [
    Case("baseline"),
    Case("prac", timings=DramTimings().with_prac(),
         tracker=lambda bank: PracTracker(24)),
    Case("mint-rfm", tracker=lambda bank: MintTracker(
        8, rng=random.Random(bank)), rfm_bat=8),
    Case("mist-drfm", drfm=True),
    Case("rowpress", rowpress=True,
         tracker=lambda bank: NaiveMirzaTracker(
             16, 4, rng=random.Random(bank))),
    Case("naive-mirza-q1", tracker=lambda bank: NaiveMirzaTracker(
        4, 1, rng=random.Random(bank))),
    # A REF every 450 ns with a 410 ns blackout: ACTs queued behind
    # one REF land past the next, inside the fixpoint.
    Case("ref-blackout", timings=dataclasses.replace(
        DramTimings(), tREFI=ns(450), tRFC=ns(410))),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
@pytest.mark.parametrize("seed", [0, 1])
def test_serve_timing_matches_the_reference(case, seed, monkeypatch):
    new, ref = case.build(MemoryController), case.build(ReferenceController)
    fixpoint_refs = []
    process = MemoryController.process_refreshes

    def recorded(mc, until):
        # A REF reached past the request's arrival was reached by the
        # ACT's fixpoint.
        if mc is new and until > arrival:
            fixpoint_refs.append(until)
        process(mc, until)
    monkeypatch.setattr(MemoryController, "process_refreshes", recorded)
    for bank, row, arrival in requests(seed, 1500):
        assert new.serve_timing(bank, row, arrival) == \
            ref.serve_timing(bank, row, arrival)
        assert _state(new) == _state(ref)
    assert new.log == ref.log
    violations = TimingValidator(new.timings).validate(new.log)
    if case.drfm:
        # A DRFM blacks out every sampled bank from tRAS after the
        # triggering ACT, including banks whose next ACT was already
        # booked inside that window; both paths book the same ones.
        assert violations == TimingValidator(ref.timings).validate(
            ref.log)
        assert all(line.startswith("RFM blackout") for line in violations)
    else:
        assert violations == []
    assert new.total_activations > 0 and new.row_hits > 0
    if case.name == "ref-blackout":
        assert fixpoint_refs
    if case.tracker is not None and case.rfm_bat is None \
            and not case.rowpress:
        assert new.alerts > 0
    if case.rfm_bat is not None:
        assert new.rfm.rfms_issued > 0
    if case.drfm:
        assert new.drfm.drfms_issued > 0
    if case.rowpress:
        assert new.device.stats.row_press_equivalents > 0


def test_a_row_outside_the_bank_raises_at_the_same_request():
    case = CASES[0]
    new, ref = case.build(MemoryController), case.build(ReferenceController)
    stream = requests(3, 400, bad_at=250)
    for index, (bank, row, arrival) in enumerate(stream):
        if index < 250:
            assert new.serve_timing(bank, row, arrival) == \
                ref.serve_timing(bank, row, arrival)
            continue
        with pytest.raises(ValueError, match="out of range"):
            new.serve_timing(bank, row, arrival)
        with pytest.raises(ValueError, match="out of range"):
            ref.serve_timing(bank, row, arrival)
        break
    assert _state(new) == _state(ref)
    assert new.log == ref.log


def test_metrics_and_trace_events_match_the_reference():
    case = CASES[5]
    seen = []
    for cls in (MemoryController, ReferenceController):
        with obs.collecting("metrics", "trace") as col:
            mc = case.build(cls)
            for bank, row, arrival in requests(4, 800):
                mc.serve_timing(bank, row, arrival)
        seen.append((col.metrics.snapshot(), col.trace.as_list(),
                     _state(mc)))
    assert seen[0] == seen[1]
    assert seen[0][0]["mc.row_conflicts"]["value"] > 0


def _core_state(system: MultiCoreSystem) -> list:
    return [(core.clock, core.retired_instructions, core.misses_issued,
             core._idx, len(core._buf), list(core._outstanding))
            for core in system.cores]


SYSTEM_SETUPS = [baseline_setup(), naive_mirza_setup(8, queue_entries=1),
                 mirza_setup(1000, SimScale(8192))]


@pytest.mark.parametrize("setup", SYSTEM_SETUPS,
                         ids=lambda setup: setup.name)
@pytest.mark.parametrize("fraction", [0.3, 1.0])
def test_drive_matches_the_reference(setup, fraction):
    scale = SimScale(8192)
    synthetic = calibrated_workload("mcf", scale)
    window = int(scale.scaled_trefw(CONFIG.timings) * fraction)

    def build(cls):
        return cls(SystemConfig(), synthetic.trace_factory(),
                   tracker_factory=(
                       None if setup.tracker_factory is None else
                       lambda subch, bank: setup.tracker_factory(
                           0, subch, bank)),
                   mapping_factory=lambda: setup.make_mapping(
                       SystemConfig()),
                   refs_per_window=scale.scaled_refs_per_window(
                       CONFIG.timings),
                   mlp=synthetic.mlp)
    new, ref = build(MultiCoreSystem), build(ReferenceSystem)
    new.drive(window)
    ref.drive(window)
    assert _core_state(new) == _core_state(ref)
    assert [_state(mc) for mc in new.mcs] == [_state(mc) for mc in ref.mcs]
    assert new.collect(window) == ref.collect(window)
    assert sum(core.misses_issued for core in new.cores) > 100


def test_drive_metrics_match_the_reference():
    scale = SimScale(8192)
    synthetic = calibrated_workload("tc", scale)
    window = scale.scaled_trefw(CONFIG.timings)
    seen = []
    for cls in (MultiCoreSystem, ReferenceSystem):
        with obs.collecting("metrics") as col:
            system = cls(SystemConfig(), synthetic.trace_factory(),
                         mlp=synthetic.mlp)
            system.drive(window)
        seen.append((col.metrics.snapshot(), _core_state(system)))
    assert seen[0] == seen[1]
    assert seen[0][0]["cpu.stall_ps"]["value"] > 0
