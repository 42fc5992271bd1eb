"""Tests for the experiment runner (fast smoke at a deep scale)."""

import pytest

from repro.params import SimScale
from repro.sim.runner import (
    MINT_RFM_WINDOWS,
    baseline_setup,
    calibrated_workload,
    mint_rfm_setup,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    prac_setup,
    simulate,
)
from repro.sim.session import SimJob, SimSession

SCALE = SimScale(2048)  # ~16 us windows: smoke-test speed
SESSION = SimSession(disk_cache=False)  # shared: tests reuse results


class TestSetups:
    def test_baseline_has_no_tracker(self):
        setup = baseline_setup()
        assert setup.tracker_factory is None
        assert setup.rfm_bat is None
        assert not setup.use_prac_timings

    def test_prac_setup_uses_prac_timings(self):
        setup = prac_setup(1000)
        assert setup.use_prac_timings
        tracker = setup.tracker_factory(0, 0, 0)
        assert tracker.name == "prac"

    def test_mint_rfm_window_defaults(self):
        assert mint_rfm_setup(500).rfm_bat == 24
        assert mint_rfm_setup(1000).rfm_bat == 48
        assert mint_rfm_setup(2000).rfm_bat == 96

    def test_mint_rfm_windows_table(self):
        assert MINT_RFM_WINDOWS == {500: 24, 1000: 48, 2000: 96}

    def test_mirza_setup_scales_fth(self):
        setup = mirza_setup(1000, SimScale(64))
        assert setup.extra["config"].fth == 1500 // 64
        assert setup.mapping == "strided"

    def test_mirza_setup_fth_floor(self):
        # At extreme scales the threshold clamps at 1, never 0.
        setup = mirza_setup(1000, SCALE)
        assert setup.extra["config"].fth == 1

    def test_mirza_trackers_differ_per_bank_seed(self):
        setup = mirza_setup(1000, SCALE)
        a = setup.tracker_factory(0, 0, 0)
        b = setup.tracker_factory(0, 0, 1)
        seq_a = [a.mint.rng.random() for _ in range(3)]
        seq_b = [b.mint.rng.random() for _ in range(3)]
        assert seq_a != seq_b

    def test_naive_mirza_setup(self):
        setup = naive_mirza_setup(48, queue_entries=2)
        tracker = setup.tracker_factory(0, 0, 0)
        assert tracker.config.fth == 0
        assert tracker.queue.capacity == 2


class TestCalibration:
    def test_calibrated_workload_cached(self):
        # The calibrated pacing is cached, but each call returns a
        # *fresh* object so callers can't corrupt later cache hits.
        a = calibrated_workload("tc", SCALE, seed=3)
        b = calibrated_workload("tc", SCALE, seed=3)
        assert a is not b
        assert a.compute_per_miss_ps == b.compute_per_miss_ps
        assert a.mlp == b.mlp

    def test_cache_hit_unaffected_by_caller_mutation(self):
        # Regression: the module-global cache used to hand back the
        # same SyntheticWorkload to every caller, so mutating one
        # return value silently corrupted all subsequent hits.
        a = calibrated_workload("tc", SCALE, seed=3)
        calibrated = a.compute_per_miss_ps
        a.compute_per_miss_ps = 123_456_789
        b = calibrated_workload("tc", SCALE, seed=3)
        assert b.compute_per_miss_ps == calibrated

    def test_cache_is_bounded_lru(self, monkeypatch):
        from repro.sim import runner
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE_LIMIT", 2)
        runner._WORKLOAD_CACHE.clear()
        for name in ("tc", "cc", "bc"):
            calibrated_workload(name, SCALE, seed=3)
        assert len(runner._WORKLOAD_CACHE) == 2
        # Oldest entry (tc) was evicted; the newest two remain.
        names = [key[0].name for key in runner._WORKLOAD_CACHE]
        assert names == ["cc", "bc"]

    def test_cache_keyed_by_spec_not_name(self, monkeypatch):
        # A spec that shares mcf's name but asks a quarter of its ACT
        # rate calibrates to its own pacing, whatever this process
        # calibrated before (keyed by name, it read mcf's value).
        import dataclasses
        from collections import OrderedDict
        from repro.sim import runner
        from repro.workloads.specs import workload_by_name
        mcf = workload_by_name("mcf")
        quarter = dataclasses.replace(
            mcf, acts_per_subarray_mean=mcf.acts_per_subarray_mean / 4)
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        alone = calibrated_workload(quarter, SCALE).compute_per_miss_ps
        runner._WORKLOAD_CACHE.clear()
        paced = calibrated_workload("mcf", SCALE).compute_per_miss_ps
        after = calibrated_workload(quarter, SCALE).compute_per_miss_ps
        assert after == alone != paced

    def test_calibration_cache_keyed_by_config(self):
        # Distinct SystemConfigs calibrate differently (pacing depends
        # on core count and timings) and must not share a cache slot.
        from repro.params import SystemConfig
        default = calibrated_workload("tc", SCALE, seed=3)
        other = calibrated_workload(
            "tc", SCALE, seed=3, config=SystemConfig(num_cores=4))
        assert other is not default
        assert other.config.num_cores == 4
        # The default-config entry is untouched.
        again = calibrated_workload("tc", SCALE, seed=3)
        assert again.compute_per_miss_ps == default.compute_per_miss_ps
        assert again.config.num_cores == default.config.num_cores

    def test_calibration_hits_target_rate(self):
        result = SESSION.run(SimJob("tc", baseline_setup(), SCALE,
                                    seed=1))
        from repro.workloads.specs import workload_by_name
        spec = workload_by_name("tc")
        target = spec.acts_per_subarray_mean / SCALE.time_scale
        assert result.acts_per_subarray() == pytest.approx(
            target, rel=0.35)


class TestRunning:
    def test_baseline_cached(self):
        a = SESSION.run(SimJob("tc", baseline_setup(), SCALE))
        b = SESSION.run(SimJob("tc", baseline_setup(), SCALE))
        assert a is b

    def test_protected_run_returns_stats(self):
        result = SESSION.run(SimJob("tc", mirza_setup(1000, SCALE),
                                    SCALE))
        assert result.total_activations > 0
        assert len(result.alerts) == 2

    def test_slowdown_for_returns_pair(self):
        (sd, result), = SESSION.slowdowns(
            [SimJob("tc", prac_setup(1000), SCALE)])
        assert isinstance(sd, float)
        assert result.total_requests > 0

    def test_prac_slows_down_memory_bound_workload(self):
        (sd, _), = SESSION.slowdowns(
            [SimJob("tc", prac_setup(1000), SCALE)])
        assert sd > 0.0

    def test_mirza_cheaper_than_mint_rfm(self):
        (mirza_sd, _), (rfm_sd, _) = SESSION.slowdowns(
            [SimJob("tc", mirza_setup(1000, SCALE), SCALE),
             SimJob("tc", mint_rfm_setup(1000), SCALE)])
        assert mirza_sd <= rfm_sd

    def test_mc_side_drfm_mitigates_more_than_mirza(self):
        # Section X: MIST-style DRFM mitigates proactively, far more
        # often than filtered MIRZA; both keep benign rows far below
        # any threshold.
        scale = SimScale(4096)
        names = ("cc", "tc", "mcf")
        mist = [simulate(n, mist_setup(1000), scale) for n in names]
        mirza = [simulate(n, mirza_setup(1000, scale), scale)
                 for n in names]
        assert sum(r.mitigations for r in mist) > \
            sum(r.mitigations for r in mirza)
        assert all(r.max_unmitigated_acts < 5000 for r in mist + mirza)
