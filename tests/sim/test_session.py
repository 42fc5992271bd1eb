"""Tests for the simulation session: hashing, caching, fan-out."""

import dataclasses
from collections import OrderedDict

import pytest

from repro.params import SimScale, SystemConfig
from repro.sim import runner
from repro.sim.profile import profiling
from repro.sim.runner import baseline_setup, mirza_setup, prac_setup
from repro.sim.session import (
    CalibrationJob,
    FailurePolicy,
    SimJob,
    SimSession,
    TenantJob,
    describe,
    is_failure,
    job_token,
    using_session,
)
from repro.workloads.tenants import Tenant, TenantScenario

SCALE = SimScale(2048)  # ~16 us windows: smoke-test speed


@dataclasses.dataclass(frozen=True)
class DoubleJob:
    """A content-hashable job that reads no calibration."""

    key: int

    def execute(self):
        return 2 * self.key


class TestJobToken:
    def test_equal_jobs_hash_identically(self):
        a = SimJob("tc", mirza_setup(1000, SCALE), SCALE, seed=3)
        b = SimJob("tc", mirza_setup(1000, SCALE), SCALE, seed=3)
        assert a is not b
        assert job_token(a) == job_token(b)
        assert job_token(a.resolved()) == job_token(b.resolved())

    def test_every_field_feeds_the_hash(self):
        base = SimJob("tc", mirza_setup(1000, SCALE), SCALE, seed=0)
        variants = [
            SimJob("cc", mirza_setup(1000, SCALE), SCALE, seed=0),
            SimJob("tc", mirza_setup(500, SCALE), SCALE, seed=0),
            SimJob("tc", mirza_setup(1000, SCALE), SimScale(4096),
                   seed=0),
            SimJob("tc", mirza_setup(1000, SCALE), SCALE, seed=1),
            SimJob("tc", mirza_setup(1000, SCALE), SCALE, seed=0,
                   config=SystemConfig(num_cores=4)),
        ]
        tokens = [job_token(v.resolved()) for v in variants]
        tokens.append(job_token(base.resolved()))
        assert len(set(tokens)) == len(tokens)

    def test_distinct_configs_never_collide(self):
        # Regression: an old baseline cache key hashed
        # id(type(config)), so *every* SystemConfig value shared one
        # cache slot.
        a = SimJob("tc", baseline_setup(), SCALE,
                   config=SystemConfig())
        b = SimJob("tc", baseline_setup(), SCALE,
                   config=SystemConfig(num_cores=2))
        assert job_token(a) != job_token(b)

    def test_closure_setup_has_no_token(self):
        setup = dataclasses.replace(
            baseline_setup(),
            tracker_factory=lambda seed, subch, bank: None)
        job = SimJob("tc", setup, SCALE)
        assert job_token(job) is None

    def test_describe_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError):
            describe(object())


class TestMemoryCache:
    def test_identical_jobs_computed_once(self):
        session = SimSession(disk_cache=False)
        job = SimJob("tc", baseline_setup(), SCALE)
        a = session.run(job)
        assert session.last_batch.computed == 1
        b = session.run(SimJob("tc", baseline_setup(), SCALE))
        assert a is b
        assert (session.last_batch.cache_hits,
                session.last_batch.computed) == (1, 0)

    def test_run_many_dedupes_within_batch(self):
        session = SimSession(disk_cache=False)
        job = SimJob("tc", baseline_setup(), SCALE)
        results = session.run_many([job, job, job])
        assert results[0] is results[1] is results[2]
        assert session.last_batch.computed == 1

    def test_closure_jobs_run_uncached(self, monkeypatch):
        from repro.sim.runner import simulate
        session = SimSession(disk_cache=False)
        setup = prac_setup(1000)
        factory = setup.tracker_factory
        opaque = dataclasses.replace(
            setup,
            tracker_factory=lambda seed, subch, bank: factory(
                seed, subch, bank))
        job = SimJob("tc", opaque, SCALE)
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        result = session.run(job)
        # The session calibrates its key like any in-process job's, to
        # the value simulate() settles on by itself.
        key = job_token(CalibrationJob("tc", SCALE).resolved())
        assert isinstance(session._memory[key], int)
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        assert result == simulate("tc", setup, SCALE)
        assert session.run(job) == result
        # Untokened: executed every time, never a hit or "computed".
        batch = session.last_batch
        assert (batch.submitted, batch.unique, batch.cache_hits,
                batch.computed) == (1, 1, 0, 0)


class TestDiskCache:
    def test_round_trip_between_sessions(self, tmp_path):
        job = SimJob("tc", prac_setup(1000), SCALE)
        first = SimSession(cache_dir=str(tmp_path))
        computed = first.run(job)
        second = SimSession(cache_dir=str(tmp_path))
        restored = second.run(SimJob("tc", prac_setup(1000), SCALE))
        # A fresh session's memory is empty, so its hit came from disk.
        assert second.last_batch.cache_hits == 1
        assert second.last_batch.computed == 0
        assert restored == computed

    def test_corrupt_entry_recomputes(self, tmp_path):
        job = SimJob("tc", baseline_setup(), SCALE)
        session = SimSession(cache_dir=str(tmp_path))
        session.run(job)
        path = session._entry_path(job_token(job.resolved()))
        with open(path, "w") as handle:
            handle.write("{not json")
        fresh = SimSession(cache_dir=str(tmp_path))
        result = fresh.run(job)
        assert fresh.last_batch.cache_hits == 0
        assert fresh.last_batch.computed == 1
        assert result == session.run(job)

    def test_disk_cache_off_writes_nothing(self, tmp_path):
        session = SimSession(cache_dir=str(tmp_path), disk_cache=False)
        session.run(SimJob("tc", baseline_setup(), SCALE))
        assert list(tmp_path.iterdir()) == []


class TestParallel:
    def test_parallel_equals_serial(self):
        jobs = [SimJob(name, setup, SCALE)
                for name in ("tc", "cc")
                for setup in (baseline_setup(),
                              mirza_setup(1000, SCALE))]
        serial = SimSession(disk_cache=False).run_many(jobs)
        parallel = SimSession(disk_cache=False,
                              max_workers=2).run_many(jobs)
        assert serial == parallel

    def test_slowdowns_pair_jobs_with_their_baselines(self):
        session = SimSession(disk_cache=False)
        jobs = [SimJob("tc", mirza_setup(1000, SCALE), SCALE)]
        (slowdown, protected), = session.slowdowns(jobs)
        baseline = session.run(SimJob("tc", baseline_setup(), SCALE))
        assert slowdown == protected.slowdown_pct(baseline)
        # The baseline was computed inside the slowdowns() batch.
        assert session.last_batch.cache_hits == 1


class TestBatchStats:
    def test_run_many_dedups_within_batch(self):
        session = SimSession(disk_cache=False)
        job = SimJob("tc", prac_setup(1000), SCALE)
        results = session.run_many([job, job, job])
        assert results[0] == results[1] == results[2]
        batch = session.last_batch
        assert batch.submitted == 3
        assert batch.unique == 1
        assert batch.deduplicated == 2
        assert batch.cache_hits == 0
        assert batch.computed == 1

    def test_second_batch_served_from_cache(self):
        session = SimSession(disk_cache=False)
        job = SimJob("tc", prac_setup(1000), SCALE)
        session.run_many([job])
        session.run_many([job])
        batch = session.last_batch
        assert batch.cache_hits == 1
        assert batch.computed == 0

    def test_slowdowns_share_one_baseline(self):
        # Two protected jobs over the same workload/scale/seed need
        # only a single unprotected baseline simulation between them.
        session = SimSession(disk_cache=False)
        jobs = [SimJob("tc", prac_setup(1000), SCALE),
                SimJob("tc", mirza_setup(1000, SCALE), SCALE)]
        pairs = session.slowdowns(jobs)
        assert len(pairs) == 2
        batch = session.last_batch
        assert batch.submitted == 4  # a baseline per job + 2 jobs
        assert batch.unique == 3  # the shared baseline runs once
        assert batch.deduplicated == 1
        assert batch.computed == 3

    def test_distinct_workloads_keep_distinct_baselines(self):
        session = SimSession(disk_cache=False)
        jobs = [SimJob("tc", prac_setup(1000), SCALE),
                SimJob("cc", prac_setup(1000), SCALE)]
        session.slowdowns(jobs)
        batch = session.last_batch
        assert batch.submitted == 4  # 2 baselines + 2 jobs
        assert batch.unique == 4
        assert batch.deduplicated == 0


class TestDefaultSessionWrappers:
    def test_distinct_configs_get_distinct_baselines(self):
        # Regression for the id(type(config)) cache-key bug: baselines
        # for different SystemConfig values must not be conflated.
        from repro.sim.session import get_default_session
        with using_session(SimSession(disk_cache=False)) as session:
            wide, narrow = get_default_session().run_many(
                [SimJob("tc", baseline_setup(), SCALE),
                 SimJob("tc", baseline_setup(), SCALE,
                        config=SystemConfig(num_cores=2))])
        assert session.last_batch.unique == 2
        assert len(wide.ipc) == 8
        assert len(narrow.ipc) == 2

    def test_using_session_scopes_and_restores(self):
        from repro.sim.session import get_default_session
        outer = get_default_session()
        scoped = SimSession(disk_cache=False)
        with using_session(scoped):
            assert get_default_session() is scoped
        assert get_default_session() is outer


class TestBatchCalibration:
    @staticmethod
    def _count_pools(session, monkeypatch):
        built = []
        make = session._make_pool

        def counted(workers):
            built.append(workers)
            return make(workers)
        monkeypatch.setattr(session, "_make_pool", counted)
        return built

    def test_batch_without_calibrations_builds_one_pool(self,
                                                        monkeypatch):
        session = SimSession(disk_cache=False, max_workers=2)
        built = self._count_pools(session, monkeypatch)
        assert session.run_many([DoubleJob(1), DoubleJob(2)]) == [2, 4]
        assert built == [2]

    def test_one_calibration_per_key_outside_batch_stats(self,
                                                         monkeypatch):
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        session = SimSession(disk_cache=False, max_workers=2)
        built = self._count_pools(session, monkeypatch)
        jobs = [SimJob(name, setup, SCALE) for name in ("tc", "cc")
                for setup in (baseline_setup(), prac_setup(1000))]
        with profiling() as prof:
            results = session.run_many(jobs)
        assert results == SimSession(disk_cache=False).run_many(jobs)
        assert built == [2]  # calibrations run here; only the batch pools
        assert prof.calibrations == 2
        batch = session.last_batch
        assert (batch.submitted, batch.unique, batch.computed,
                batch.cache_hits) == (4, 4, 4, 0)
        for name in ("tc", "cc"):
            key = job_token(CalibrationJob(name, SCALE).resolved())
            assert isinstance(session._memory[key], int)

    def test_failed_calibration_ships_nothing(self, monkeypatch):
        # Every first attempt faults: the key's one-attempt
        # calibration fails once per batch and stores nothing, and each
        # job calibrates itself on its retry, to the clean results.
        jobs = [SimJob("tc", setup, SCALE)
                for setup in (baseline_setup(), prac_setup(1000))]
        clean = SimSession(disk_cache=False).run_many(jobs)
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        seen = []
        session = SimSession(disk_cache=False, max_retries=1,
                             progress=seen.append)
        assert session.run_many(jobs) == clean
        assert [u.last for u in seen if u.last.startswith("calibrate:")] \
            == ["calibrate:tc/x2048/seed0"]
        assert job_token(CalibrationJob("tc", SCALE).resolved()) \
            not in session._memory
        assert session.last_batch.retried == 2

    def test_disk_cache_keeps_calibrations(self, tmp_path, monkeypatch):
        SimSession(cache_dir=str(tmp_path)).run(
            SimJob("tc", baseline_setup(), SCALE))
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        second = SimSession(cache_dir=str(tmp_path))
        with profiling() as prof:
            second.run(SimJob("tc", prac_setup(1000), SCALE))
        assert prof.calibrations == 0  # read back, no probes
        assert second.last_batch.cache_hits == 0  # calibration is no cell

    def test_unknown_tenant_workload_fails_only_its_job(self):
        scenario = TenantScenario((Tenant("vm", tuple(range(8)),
                                          workload="no-such-workload"),))
        jobs = [TenantJob(scenario, baseline_setup(), SCALE),
                SimJob("tc", baseline_setup(), SCALE)]
        session = SimSession(disk_cache=False, max_retries=0,
                             failure_policy=FailurePolicy.KEEP_GOING)
        bad, good = session.run_many(jobs)
        assert is_failure(bad) and bad.error_type == "KeyError"
        assert not is_failure(good)
