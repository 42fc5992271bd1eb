"""Tests for the DRFM-based MC-side engine (DREAM / MIST)."""

import random

import pytest

from repro.dram.device import DramDevice
from repro.mc.drfm import DrfmEngine


class TestDrfmEngine:
    def test_validation(self):
        with pytest.raises(ValueError):
            DrfmEngine(4, acts_per_drfm=0)
        with pytest.raises(ValueError):
            DrfmEngine(4, min_samples=5)

    def test_samples_latched_per_bank(self):
        e = DrfmEngine(2, sample_window=1, acts_per_drfm=100)
        e.on_activate(0, 10)
        e.on_activate(1, 20)
        assert e._samples == {0: 10, 1: 20}

    def test_latest_sample_wins(self):
        # MIST: the latch is refreshed, never exhausted.
        e = DrfmEngine(1, sample_window=1, acts_per_drfm=100)
        e.on_activate(0, 10)
        e.on_activate(0, 11)
        assert e.issue_drfm() == [(0, 11)]

    def test_fires_at_interval(self):
        e = DrfmEngine(1, sample_window=1, acts_per_drfm=4)
        fired = [e.on_activate(0, i) for i in range(4)]
        assert fired == [False, False, False, True]

    def test_dream_defers_until_enough_samples(self):
        e = DrfmEngine(4, sample_window=10 ** 6, acts_per_drfm=2,
                       min_samples=2)
        # No sampler has selected anything yet: the interval elapses
        # but the DRFM is deferred.
        assert not e.on_activate(0, 1)
        assert not e.on_activate(0, 2)
        assert e.deferrals == 1

    def test_issue_clears_state(self):
        e = DrfmEngine(2, sample_window=1, acts_per_drfm=2)
        e.on_activate(0, 10)
        assert e.on_activate(1, 20)
        pairs = e.issue_drfm()
        assert pairs == [(0, 10), (1, 20)]
        assert e._samples == {}
        assert e.drfms_issued == 1

    def test_one_drfm_mitigates_many_banks(self, small_config):
        """End to end: one DRFM applies victim refreshes in parallel
        across every sampled bank of the device."""
        device = DramDevice(small_config)
        engine = DrfmEngine(device.num_banks, sample_window=1,
                            acts_per_drfm=8,
                            rng=random.Random(1))
        fired = 0
        for i in range(64):
            bank = i % device.num_banks
            row = 100 + (i * 13) % 256
            device.activate(bank, row, i)
            if engine.on_activate(bank, row):
                for b, aggressor in engine.issue_drfm():
                    device.banks[b].mitigate(aggressor)
                fired += 1
        assert fired >= 1
        mitigated_banks = sum(
            1 for b in device.banks if b.total_mitigations)
        assert mitigated_banks >= 2  # parallelism across banks

    def test_storage_scales_with_banks(self):
        small = DrfmEngine(8).storage_bits()
        large = DrfmEngine(32).storage_bits()
        assert large > small * 3
