"""Integration of the DRFM engine with the memory controller."""

import random

import pytest

from repro.dram.device import DramDevice
from repro.mc.controller import MemoryController
from repro.mc.drfm import DrfmEngine
from repro.mc.validator import CommandLog, TimingValidator
from repro.params import ns


def make(small_config, acts_per_drfm=16, sample_window=1):
    device = DramDevice(small_config)
    engine = DrfmEngine(device.num_banks, sample_window=sample_window,
                        acts_per_drfm=acts_per_drfm,
                        rng=random.Random(7))
    log = CommandLog()
    mc = MemoryController(small_config, device, command_log=log,
                          drfm=engine)
    return mc, device, engine, log


class TestDrfmController:
    def _drive(self, mc, n=64):
        t = 0
        for i in range(n):
            result = mc.serve(i % 4, (i * 37) % 512, t)
            t = result.completion_time + ns(5)
        return t

    def test_drfm_mitigations_recorded(self, small_config):
        mc, device, engine, _ = make(small_config)
        self._drive(mc)
        assert engine.drfms_issued >= 1
        assert device.stats.mitigations_total >= 1
        assert device.stats.mitigations_by_source.get("rfm", 0) >= 1

    def test_one_drfm_serves_multiple_banks(self, small_config):
        mc, device, engine, _ = make(small_config, acts_per_drfm=32)
        self._drive(mc, 64)
        per_drfm = device.stats.mitigations_total / \
            max(1, engine.drfms_issued)
        assert per_drfm > 1.0

    def test_oracle_counts_reduced(self, small_config):
        mc, device, engine, _ = make(small_config, acts_per_drfm=8)
        t = 0
        # Hammer one row; the sampler latches it constantly.
        for _ in range(200):
            result = mc.serve(0, 42, t)
            t = result.completion_time + ns(50)
        assert device.banks[0].oracle.count(42) < 200

    def test_timing_stays_legal_with_drfm(self, small_config):
        mc, device, engine, log = make(small_config)
        self._drive(mc, 128)
        violations = TimingValidator(small_config.timings).validate(log)
        assert violations == []

    def test_disabled_when_none(self, small_config):
        device = DramDevice(small_config)
        mc = MemoryController(small_config, device)
        t = 0
        for i in range(32):
            result = mc.serve(i % 4, i * 3 % 128, t)
            t = result.completion_time + ns(5)
        assert device.stats.mitigations_total == 0


class TestDrfmBlackout:
    """A DRFM blackout starts tRAS after the latest ACT booked on any
    bank it serves, not only after the ACT that released it.  With
    ``acts_per_drfm=2`` and a one-ACT sampling window, the second ACT
    releases a DRFM that serves both banks."""

    def test_waits_for_a_later_act_on_a_served_bank(self, small_config):
        mc, _, engine, log = make(small_config, acts_per_drfm=2)
        mc.serve(1, 5, ns(100))  # booked first, lands later
        mc.serve(0, 7, 0)        # releases the DRFM
        t = small_config.timings
        assert engine.drfms_issued == 1
        assert sorted(bank for _, _, bank in log.rfms) == [0, 1]
        assert {start for start, _, _ in log.rfms} == {ns(100) + t.tRAS}
        assert TimingValidator(t).validate(log) == []

    def test_follows_the_releasing_act_when_it_is_latest(
            self, small_config):
        mc, _, _, log = make(small_config, acts_per_drfm=2)
        mc.serve(1, 5, 0)
        mc.serve(0, 7, ns(100))
        (release,) = [time for time, bank in log.acts if bank == 0]
        assert {start for start, _, _ in log.rfms} == {
            release + small_config.timings.tRAS}

    def test_served_banks_wait_out_the_blackout(self, small_config):
        mc, _, _, log = make(small_config, acts_per_drfm=2)
        mc.serve(1, 5, ns(100))
        mc.serve(0, 7, 0)
        end = log.rfms[0][1]
        mc.serve(1, 9, ns(110))
        acts = [time for time, bank in log.acts if bank == 1]
        assert len(acts) == 2 and acts[1] >= end

    @pytest.mark.parametrize("acts_per_drfm", [2, 4, 8, 16])
    def test_jittered_arrivals_stay_legal(self, small_config,
                                          acts_per_drfm):
        """Requests served out of arrival order book ACTs ahead of the
        one that releases a DRFM, the way a multi-core run does."""
        mc, _, engine, log = make(small_config,
                                  acts_per_drfm=acts_per_drfm)
        rng = random.Random(acts_per_drfm)
        now = 0
        for _ in range(400):
            arrival = now + rng.randrange(ns(200))
            mc.serve(rng.randrange(4), rng.randrange(4096), arrival)
            now += ns(rng.randrange(1, 30))
        assert engine.drfms_issued >= 400 // acts_per_drfm
        violations = TimingValidator(small_config.timings).validate(log)
        assert violations == []
