"""The device's incremental ALERT line against its reference.

:class:`DramDevice` re-polls a bank only where its tracker is driven,
and answers ``alert_pending`` from the resulting set.  The lockstep
tests drive it and :class:`PollEveryTrackerDevice` (which polls every
alertable tracker on each read) through the same seeded operations and
assert after every one that the two lines agree.  The call-count test
bounds how often a whole ALERT-heavy simulation polls.
"""

import random
from collections import Counter

import pytest

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.device import DramDevice
from repro.dram.mapping import SequentialR2SA
from repro.mitigations.naive_mirza import NaiveMirzaTracker
from repro.mitigations.none import NoMitigation
from repro.mitigations.prac import PracTracker
from repro.params import SimScale, SystemConfig
from repro.sim.runner import calibrated_workload, naive_mirza_setup, \
    simulate
from tests.dram.reference_alert import PollEveryTrackerDevice

KINDS = ("mirza", "naive-mirza", "prac")
OPS = ("activate", "activate", "activate", "activate", "rfm",
       "drfm_mitigate", "note_row_press", "do_ref", "service_alert")
"""Operation mix: ACTs dominate, as in a run; every other operation
that touches tracker or oracle state appears too."""


def _tracker(kind: str, bank: int, geometry):
    """A tracker tuned to flip its ALERT request within a few ACTs."""
    rng = random.Random(100 + bank)
    if kind == "mirza":
        config = MirzaConfig(trhd=0, fth=2, mint_window=4, num_regions=4,
                             queue_entries=2, qth=3)
        return MirzaTracker(config, geometry, SequentialR2SA(geometry),
                            rng)
    if kind == "naive-mirza":
        return NaiveMirzaTracker(4, queue_entries=1, qth=3,
                                 geometry=geometry, rng=rng)
    return PracTracker(1000, alert_threshold=4)


def _factory(kind: str, geometry):
    # The last bank is never alertable, so the line must also ignore it.
    last = geometry.banks_per_subchannel - 1
    return lambda bank: (NoMitigation() if bank == last
                         else _tracker(kind, bank, geometry))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", KINDS)
def test_alert_line_matches_polling_every_tracker(small_config, kind,
                                                  seed):
    geometry = small_config.geometry
    device = DramDevice(small_config, _factory(kind, geometry))
    reference = PollEveryTrackerDevice(small_config,
                                       _factory(kind, geometry))
    assert device.alertable_banks == frozenset(
        range(geometry.banks_per_subchannel - 1))
    rng = random.Random(seed)
    rows = [rng.randrange(geometry.rows_per_bank) for _ in range(6)]
    raised = 0
    now = 0
    for step in range(600):
        now += rng.randrange(1, 50_000)
        op = rng.choice(OPS)
        bank = rng.randrange(geometry.banks_per_subchannel)
        row = rng.choice(rows)
        for dev in (device, reference):
            if op == "activate":
                dev.activate(bank, row, now)
            elif op == "rfm":
                dev.rfm(bank, now)
            elif op == "drfm_mitigate":
                dev.drfm_mitigate(bank, row)
            elif op == "note_row_press":
                dev.note_row_press(bank, row, step % 4, now)
            else:
                getattr(dev, op)(now)
        pending = device.alert_pending()
        assert pending == reference.alert_pending(), (step, op)
        assert device.alerting_banks == {
            b for b in device.alertable_banks
            if device.trackers[b].wants_alert()}, (step, op)
        raised += pending
    # Both states of the line were exercised.
    assert 0 < raised < 600
    assert device.stats == reference.stats


def test_alert_line_polls_once_per_act(monkeypatch):
    """An ALERT-heavy run polls at most once per ACT or RFM, plus once
    per alertable bank per REF, ALERT service or device construction."""
    scale = SimScale(2048)
    calibrated_workload("tc", scale, seed=0)  # keep probes out
    calls = Counter()

    def counting(cls, name):
        inner = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counting(MirzaTracker, "wants_alert")
    for name in ("do_ref", "service_alert", "rfm"):
        counting(DramDevice, name)
    geometry = SystemConfig().geometry
    banks = geometry.banks_per_subchannel
    result = simulate("tc", naive_mirza_setup(8, queue_entries=1),
                      scale, seed=0)
    assert sum(result.alerts) > 40
    bound = (result.total_activations + calls["rfm"]
             + banks * (calls["do_ref"] + calls["service_alert"]
                        + geometry.subchannels))
    assert 0 < calls["wants_alert"] <= bound, calls
