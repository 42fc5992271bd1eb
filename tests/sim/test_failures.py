"""Tests for fault-tolerant batch execution.

Covers the failure paths of :meth:`SimSession.run_many`: poisoned
jobs under both failure policies, ``BrokenProcessPool`` recovery and
the serial fallback, per-job timeouts, retry determinism, resuming a
crashed batch from the disk cache, the defensive environment-knob
parsing, the result a failed token gets, and shared baseline passes
keeping all of it (a failing pass dissolves into plain jobs).

The job classes are module-level dataclasses so worker processes can
unpickle them by reference.
"""

import dataclasses
import os
import pickle
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro._env as _env
from repro import obs
from repro.experiments import common
from repro.params import SimScale
from repro.sim.profile import profiling
from repro.sim.registry import setup_by_name
from repro.sim.runner import (
    MitigationSetup,
    baseline_setup,
    mirza_setup,
    naive_mirza_setup,
    prac_setup,
)
from repro.sim.session import (
    FailurePolicy,
    JobFailed,
    JobFailure,
    SharedPass,
    SimJob,
    SimSession,
    _execute_job,
    fault_roll,
    is_failure,
    job_token,
    register_job_type,
)

SCALE = SimScale(4096)  # ~8 us windows: failure-path smoke speed
KEEP_GOING = FailurePolicy.KEEP_GOING


@dataclasses.dataclass(frozen=True)
class OkJob:
    """A trivially-successful content-hashable job."""

    key: int

    def execute(self):
        return self.key * 2


@dataclasses.dataclass(frozen=True)
class BoomJob:
    """A deterministically-poisoned job."""

    key: int

    def execute(self):
        raise RuntimeError(f"boom {self.key}")


@dataclasses.dataclass(frozen=True)
class FlakyJob:
    """Fails until ``marker`` exists, then succeeds: a transient fault
    observable across processes."""

    key: int
    marker: str

    def execute(self):
        if os.path.exists(self.marker):
            return f"healed {self.key}"
        open(self.marker, "w").close()
        raise OSError("transient")


@dataclasses.dataclass(frozen=True)
class CrashOnceJob:
    """Kills its worker process outright on the first execution (the
    OOM-kill analogue -> ``BrokenProcessPool``), succeeds afterwards."""

    marker: str

    def execute(self):
        if os.path.exists(self.marker):
            return "recovered"
        open(self.marker, "w").close()
        os._exit(1)


@dataclasses.dataclass(frozen=True)
class SleepJob:
    """Sleeps long enough to trip any sub-second per-job timeout."""

    key: int
    seconds: float

    def execute(self):
        time.sleep(self.seconds)
        return "slept"


@dataclasses.dataclass(frozen=True)
class RaisesTimeoutJob:
    """Raises ``TimeoutError`` itself, as a job whose own I/O gave up
    would: a job failure, not the session's wait running out."""

    key: int

    def execute(self):
        raise TimeoutError("socket timed out")


@dataclasses.dataclass(frozen=True)
class RaisingTrackerFactory:
    """An ALERT-only setup's tracker factory that always raises: the
    shared pass carrying it raises too."""

    def __call__(self, seed, subch, bank):
        raise RuntimeError("no tracker")


# JSON-trivial results: identity codecs make the toy jobs disk-cacheable.
for _job_type in (OkJob, FlakyJob, CrashOnceJob, SleepJob):
    register_job_type(_job_type, lambda r: r, lambda p: p)


class TestKeepGoing:
    def test_siblings_survive_a_poisoned_job(self):
        session = SimSession(disk_cache=False, max_retries=0,
                             failure_policy=KEEP_GOING)
        results = session.run_many([OkJob(1), BoomJob(2), OkJob(3)])
        assert results[0] == 2 and results[2] == 6
        failure = results[1]
        assert is_failure(failure)
        assert failure.error_type == "RuntimeError"
        assert failure.message == "boom 2"
        assert failure.attempts == 1
        assert not failure.timed_out

    def test_pool_siblings_survive_and_are_cached(self, tmp_path):
        session = SimSession(cache_dir=str(tmp_path), max_workers=4,
                             max_retries=0, failure_policy=KEEP_GOING)
        results = session.run_many(
            [OkJob(1), BoomJob(2), OkJob(3), OkJob(4)])
        assert [r for r in results if not is_failure(r)] == [2, 6, 8]
        assert sum(1 for r in results if is_failure(r)) == 1
        # Completed siblings were persisted as they finished.
        for job in (OkJob(1), OkJob(3), OkJob(4)):
            assert os.path.exists(
                session._entry_path(job_token(job)))

    def test_batch_stats_count_failures(self):
        session = SimSession(disk_cache=False, max_retries=2,
                             failure_policy=KEEP_GOING)
        session.run_many([OkJob(1), BoomJob(2)])
        batch = session.last_batch
        assert batch.computed == 1
        assert batch.failed == 1
        assert batch.retried == 2  # both retries burned on the boom
        assert batch.timed_out == 0


class TestFailFast:
    def test_raises_after_storing_completed_siblings(self, tmp_path):
        session = SimSession(cache_dir=str(tmp_path), max_retries=0)
        with pytest.raises(JobFailed) as excinfo:
            session.run_many([OkJob(1), BoomJob(2), OkJob(3)])
        assert isinstance(excinfo.value.failure, JobFailure)
        assert excinfo.value.failure.error_type == "RuntimeError"
        # The batch finished harvesting before raising: both siblings
        # are in the memory and disk caches, so a rerun resumes.
        for job in (OkJob(1), OkJob(3)):
            token = job_token(job)
            assert token in session._memory
            assert os.path.exists(session._entry_path(token))

    def test_fail_fast_is_the_library_default(self):
        session = SimSession(disk_cache=False, max_retries=0)
        assert session.failure_policy is FailurePolicy.FAIL_FAST
        with pytest.raises(JobFailed):
            session.run_many([BoomJob(1)])

    def test_untokened_failure_respects_policy(self):
        setup = dataclasses.replace(
            baseline_setup(),
            tracker_factory=lambda seed, subch, bank: 1 / 0)
        job = SimJob("tc", setup, SCALE)
        assert job_token(job) is None
        with pytest.raises(JobFailed):
            SimSession(disk_cache=False, max_retries=0).run_many([job])
        session = SimSession(disk_cache=False, max_retries=0,
                             failure_policy=KEEP_GOING)
        results = session.run_many([job])
        assert is_failure(results[0])
        assert results[0].token is None
        assert (session.last_batch.failed,
                session.last_batch.computed) == (1, 0)


class TestRetries:
    def test_transient_failure_heals_on_retry(self, tmp_path):
        marker = str(tmp_path / "marker")
        session = SimSession(disk_cache=False, max_retries=1)
        result = session.run_many([FlakyJob(1, marker)])[0]
        assert result == "healed 1"
        assert session.last_batch.retried == 1
        assert session.last_batch.failed == 0

    def test_zero_retries_fails_transients(self, tmp_path):
        marker = str(tmp_path / "marker")
        session = SimSession(disk_cache=False, max_retries=0,
                             failure_policy=KEEP_GOING)
        results = session.run_many([FlakyJob(1, marker)])
        assert is_failure(results[0])

    def test_injected_faults_heal_and_results_are_bit_identical(
            self, monkeypatch):
        jobs = [SimJob("tc", setup, SCALE)
                for setup in (baseline_setup(), prac_setup(1000),
                              mirza_setup(1000, SCALE))]
        clean = SimSession(disk_cache=False).run_many(jobs)
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        session = SimSession(disk_cache=False, max_workers=2,
                             max_retries=1)
        faulted = session.run_many(jobs)
        # Every job faulted once (rate 1.0) and retried to completion;
        # a retried job re-executes the same pure content, so the
        # batch is bit-identical to the clean serial run.
        assert faulted == clean
        assert session.last_batch.retried == 3
        assert session.last_batch.failed == 0

    def test_fault_roll_is_deterministic_and_seeded(self, monkeypatch):
        job = SimJob("tc", baseline_setup(), SCALE)
        assert fault_roll(job) == fault_roll(job)
        first = fault_roll(job)
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        assert fault_roll(job) != first


class TestBrokenPoolRecovery:
    def test_crashed_worker_pool_is_rebuilt(self, tmp_path):
        marker = str(tmp_path / "crashed")
        session = SimSession(disk_cache=False, max_workers=2,
                             max_retries=1, failure_policy=KEEP_GOING)
        results = session.run_many(
            [OkJob(1), CrashOnceJob(marker), OkJob(2)])
        assert results == [2, "recovered", 4]

    def test_persistently_broken_pool_falls_back_to_serial(
            self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class AlwaysBrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        session = SimSession(disk_cache=False, max_workers=2)
        monkeypatch.setattr(session, "_make_pool",
                            lambda workers: AlwaysBrokenPool())
        results = session.run_many([OkJob(1), OkJob(2), OkJob(3)])
        assert results == [2, 4, 6]  # computed in-process
        # A pass dissolves with the pool; its members then finish in
        # this process with the counts of the serial batch.
        jobs = _pass_jobs()
        clean = [job.execute() for job in jobs]
        with profiling() as prof:
            assert session.run_many(jobs) == clean
        assert prof.shared_passes == 0
        assert _counts(session.last_batch) == (10, 10, 0, 10, 0, 0, 0)


class TestTimeout:
    def test_stuck_job_times_out_and_siblings_complete(self):
        session = SimSession(disk_cache=False, max_workers=2,
                             max_retries=0, job_timeout=0.3,
                             failure_policy=KEEP_GOING)
        results = session.run_many([SleepJob(1, 3.0), OkJob(2)])
        assert is_failure(results[0])
        assert results[0].timed_out
        assert results[0].error_type == "TimeoutError"
        assert results[1] == 4
        assert session.last_batch.timed_out == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_job_raising_timeout_error_is_a_job_failure(
            self, workers, monkeypatch):
        """Since Python 3.11 the futures wait's ``TimeoutError`` is the
        builtin one, so only a future still running timed out."""
        session = SimSession(disk_cache=False, max_workers=workers,
                             max_retries=0, failure_policy=KEEP_GOING)
        builds = []
        make_pool = session._make_pool
        monkeypatch.setattr(session, "_make_pool", lambda n: (
            builds.append(n), make_pool(n))[1])
        results = session.run_many(
            [RaisesTimeoutJob(1), OkJob(2), OkJob(3)])
        failure = results[0]
        assert is_failure(failure) and not failure.timed_out
        assert (failure.error_type, failure.message) \
            == ("TimeoutError", "socket timed out")
        assert results[1:] == [4, 6]
        assert session.last_batch.timed_out == 0
        assert builds == ([] if workers == 1 else [2])  # no rebuild

    def test_serial_execution_ignores_the_timeout(self):
        session = SimSession(disk_cache=False, job_timeout=0.001)
        results = session.run_many([SleepJob(1, 0.05)])
        assert results == ["slept"]


class TestCacheResume:
    def test_rerun_after_failures_serves_siblings_from_disk(
            self, tmp_path):
        crashed = SimSession(cache_dir=str(tmp_path), max_retries=0,
                             failure_policy=KEEP_GOING)
        crashed.run_many([OkJob(1), BoomJob(2), OkJob(3)])
        resumed = SimSession(cache_dir=str(tmp_path))
        results = resumed.run_many([OkJob(1), OkJob(3)])
        assert results == [2, 6]
        # A fresh session's memory is empty: both hits came from disk.
        assert resumed.last_batch.cache_hits == 2
        assert resumed.last_batch.computed == 0

    def test_slowdowns_surface_failures_per_pair(self, monkeypatch):
        # Fault every first attempt; with no retry budget each pair's
        # slot degrades to its JobFailure, and with the default budget
        # the identical sweep heals (failures are never cached).
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        session = SimSession(disk_cache=False,
                             failure_policy=KEEP_GOING)
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_MAX_RETRIES", "0")
            pairs = session.slowdowns(
                [SimJob("tc", mirza_setup(1000, SCALE), SCALE)])
            assert is_failure(pairs[0])
        pairs = session.slowdowns(
            [SimJob("tc", mirza_setup(1000, SCALE), SCALE)])
        slowdown, result = pairs[0]
        assert isinstance(slowdown, float)


class TestDiskWriteHardening:
    def test_unserializable_payload_degrades_to_memory_only(
            self, tmp_path):
        from repro.sim.session import register_job_type, _CODECS

        @dataclasses.dataclass(frozen=True)
        class OpaqueResultJob:
            key: int

            def execute(self):
                return object()  # not JSON-serializable

        register_job_type(OpaqueResultJob, lambda r: r, lambda p: p)
        try:
            session = SimSession(cache_dir=str(tmp_path))
            with pytest.warns(UserWarning,
                              match="not JSON-serializable"):
                result = session.run(OpaqueResultJob(1))
            assert result is not None
            # No partial tmp file leaked, nothing persisted.
            leftovers = [name for _, _, names in os.walk(tmp_path)
                         for name in names]
            assert leftovers == []
            # The job type degraded to memory-only: the next store
            # does not attempt (or warn about) a disk write.
            assert OpaqueResultJob in session._disk_disabled
            assert session.run(OpaqueResultJob(1)) is result
        finally:
            _CODECS.pop(OpaqueResultJob, None)

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        session = SimSession(cache_dir=str(tmp_path))
        session.run(OkJob(1))
        token = job_token(OkJob(1))
        orphan = session._entry_path(token) + ".tmp.99999"
        open(orphan, "w").close()
        session.clear(disk=True)
        assert not os.path.exists(orphan)
        assert not os.path.exists(session._entry_path(token))


scale_and_seed_knobs = pytest.mark.parametrize(
    "var,read,default", [
        ("REPRO_TIME_SCALE", lambda: common.default_scale().time_scale,
         512),
        ("REPRO_CGF_SCALE", lambda: common.cgf_scale().time_scale, 16),
        ("REPRO_SEED", common.default_seed, 0),
    ], ids=["REPRO_TIME_SCALE", "REPRO_CGF_SCALE", "REPRO_SEED"])


class TestEnvKnobs:
    def test_repro_jobs_auto_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        session = SimSession(disk_cache=False)
        assert session._effective_workers(128) \
            == (os.cpu_count() or 1)

    def test_malformed_repro_jobs_warns_and_defaults(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many!")
        _env._WARNED.clear()
        session = SimSession(disk_cache=False)
        with pytest.warns(UserWarning, match="REPRO_JOBS"):
            assert session._effective_workers(128) == 1

    def test_malformed_fault_rate_warns_and_stays_off(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "lots")
        _env._WARNED.clear()
        session = SimSession(disk_cache=False)
        with pytest.warns(UserWarning, match="REPRO_FAULT_RATE"):
            assert session.run_many([OkJob(1)]) == [2]

    def test_warning_fires_once_per_value(self, monkeypatch):
        import warnings as warnings_module
        monkeypatch.setenv("REPRO_JOBS", "y")
        _env._WARNED.clear()
        session = SimSession(disk_cache=False)
        with pytest.warns(UserWarning):
            session._effective_workers(128)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            # silent second parse
            assert session._effective_workers(128) == 1

    @scale_and_seed_knobs
    def test_empty_scale_or_seed_means_default(self, monkeypatch, var,
                                               read, default):
        import warnings as warnings_module
        monkeypatch.setenv(var, "")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert read() == default

    @scale_and_seed_knobs
    def test_malformed_scale_or_seed_warns_and_defaults(
            self, monkeypatch, var, read, default):
        monkeypatch.setenv(var, "2k")
        _env._WARNED.clear()
        with pytest.warns(UserWarning, match=var) as record:
            assert read() == default
        assert len(record) == 1

    def test_zero_time_scale_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "0")
        with pytest.raises(ValueError, match="time_scale must be >= 1"):
            common.default_scale()


class TestObservabilityCounters:
    def test_failures_count_into_the_metrics_registry(self):
        with obs.collecting("metrics") as col:
            session = SimSession(disk_cache=False, max_retries=1,
                                 failure_policy=KEEP_GOING)
            session.run_many([OkJob(1), BoomJob(2)])
        snapshot = col.metrics.snapshot()
        assert snapshot["session.jobs_failed"]["value"] == 1
        assert snapshot["session.jobs_retried"]["value"] == 1
        assert "session.jobs_timed_out" not in snapshot

    def test_a_failed_attempt_folds_nothing_serial_or_pooled(self):
        """A kernel run that raises leaves nothing in the enclosing
        scope, in this process as on a pool, whose failed job ships
        nothing back."""
        setup = MitigationSetup("raising",
                                tracker_factory=RaisingTrackerFactory())
        jobs = [SimJob(w, setup, SCALE) for w in ("tc", "mcf")]
        for workers in (1, 2):
            session = SimSession(disk_cache=False, max_workers=workers,
                                 max_retries=0, failure_policy=KEEP_GOING)
            with obs.collecting("metrics", "trace") as col:
                assert all(map(is_failure, session.run_many(jobs)))
            assert list(col.metrics.snapshot()) == ["session.jobs_failed"]
            assert len(col.trace) == 0


class TestResultFill:
    """A token that failed in this batch gets its failure, even when an
    older result of it sits in memory."""

    def _rerun_with_metrics(self, policy, monkeypatch):
        job = SimJob("tc", baseline_setup(), SCALE)
        session = SimSession(disk_cache=False, max_retries=0,
                             failure_policy=policy)
        assert session.run(job).metrics is None
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        with obs.collecting("metrics"):
            return session, session.run_many([job])

    def test_fail_fast_raises(self, monkeypatch):
        with pytest.raises(JobFailed):
            self._rerun_with_metrics(FailurePolicy.FAIL_FAST, monkeypatch)

    def test_keep_going_returns_the_failure(self, monkeypatch):
        session, results = self._rerun_with_metrics(KEEP_GOING,
                                                    monkeypatch)
        assert is_failure(results[0])
        assert results[0].error_type == "InjectedFault"
        assert session.last_batch.failed == 1


def _pass_jobs():
    """Two keys' baselines, ALERT-only riders (naive MIRZA at Q=1
    always diverges) and a plain PRAC job."""
    return [SimJob(name, setup, SCALE) for name in ("tc", "mcf")
            for setup in (baseline_setup(),
                          setup_by_name("mirza-1000", SCALE),
                          setup_by_name("naive-mirza-1000", SCALE),
                          naive_mirza_setup(8, queue_entries=1),
                          prac_setup(1000))]


def _counts(batch):
    return (batch.submitted, batch.unique, batch.cache_hits,
            batch.computed, batch.failed, batch.retried, batch.timed_out)


class _InProcessPool:
    """A pool that runs each payload at submit time; with ``breaks``,
    every shared pass's future raises ``BrokenProcessPool``."""

    built = 0

    def __init__(self, breaks):
        type(self).built += 1
        self.breaks = breaks

    def submit(self, fn, payload):
        future = Future()
        if self.breaks and isinstance(payload[0], SharedPass):
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(payload))
        return future

    def shutdown(self, *args, **kwargs):
        pass


class TestSharedPasses:
    def test_serial_and_pooled_agree(self):
        jobs = _pass_jobs()
        clean = [job.execute() for job in jobs]
        seen = []
        for workers in (1, 2):
            session = SimSession(disk_cache=False, max_workers=workers)
            with profiling() as prof:
                assert session.run_many(jobs) == clean, workers
            seen.append((_counts(session.last_batch),
                         prof.shared_passes, prof.riders,
                         prof.riders_diverged))
        assert seen[0] == seen[1]
        assert seen[0] == ((10, 10, 0, 10, 0, 0, 0), 2, 4, 2)

    def test_untokened_job_runs_in_process_after_a_pooled_batch(self):
        # A closure setup: no token, and the job cannot be pickled.
        factory = prac_setup(1000).tracker_factory
        closure = SimJob("tc", dataclasses.replace(
            prac_setup(1000),
            tracker_factory=lambda seed, subch, bank: factory(
                seed, subch, bank)), SCALE)
        assert job_token(closure) is None
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(closure)
        jobs = _pass_jobs() + [closure]
        clean = [job.execute() for job in jobs]
        seen = []
        for workers in (1, 2):
            session = SimSession(disk_cache=False, max_workers=workers)
            assert session.run_many(jobs) == clean, workers
            seen.append(_counts(session.last_batch))
        # The untokened job is unique but never counted as computed.
        assert seen[0] == seen[1] == (11, 11, 0, 10, 0, 0, 0)

    def test_fault_selected_member_stays_out_of_the_pass(
            self, monkeypatch):
        # Resolved, as the session rolls them.
        jobs = [job.resolved() for job in _pass_jobs()]
        clean = [job.execute() for job in jobs]
        riders = [job for job in jobs if job.setup.alert_only]
        bases = [job for job in jobs if job.setup == baseline_setup()]
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        # A seed that faults some riders and leaves the baselines alone.
        for seed in range(100):
            monkeypatch.setenv("REPRO_FAULT_SEED", str(seed))
            picked = [job for job in riders if fault_roll(job) < 0.5]
            if 0 < len(picked) < len(riders) and all(
                    fault_roll(job) >= 0.5 for job in bases):
                break
        else:
            pytest.fail("no fault seed splits the riders")
        faulted = sum(1 for job in jobs if fault_roll(job) < 0.5)
        for workers in (1, 2):
            session = SimSession(disk_cache=False, max_workers=workers,
                                 max_retries=1)
            with profiling() as prof:
                assert session.run_many(jobs) == clean, workers
            # The same counts as if no pass had formed.
            assert _counts(session.last_batch) \
                == (10, 10, 0, 10, 0, faulted, 0), workers
            assert prof.riders + prof.riders_diverged \
                == len(riders) - len(picked), workers
        session = SimSession(disk_cache=False, max_retries=0,
                             failure_policy=KEEP_GOING)
        results = session.run_many(jobs)
        assert [is_failure(r) for r in results] \
            == [fault_roll(job) < 0.5 for job in jobs]
        assert session.last_batch.failed == faulted

    def test_pass_that_loses_its_pool_dissolves(self, monkeypatch):
        jobs = _pass_jobs()
        clean = [job.execute() for job in jobs]
        session = SimSession(disk_cache=False, max_workers=2)
        _InProcessPool.built = 0
        monkeypatch.setattr(
            session, "_make_pool",
            lambda workers: _InProcessPool(
                breaks=_InProcessPool.built == 0))
        with profiling() as prof:
            assert session.run_many(jobs) == clean
        assert _InProcessPool.built == 2  # broken once, rebuilt once
        assert prof.shared_passes == 0  # every member ran plain
        assert _counts(session.last_batch) == (10, 10, 0, 10, 0, 0, 0)

    def test_pass_that_raises_dissolves_into_plain_attempts(self):
        raising = MitigationSetup(name="raising",
                                  tracker_factory=RaisingTrackerFactory())
        jobs = [SimJob("tc", setup, SCALE)
                for setup in (baseline_setup(), raising,
                              mirza_setup(1000, SCALE))]
        for workers in (1, 2):
            session = SimSession(disk_cache=False, max_workers=workers,
                                 max_retries=1,
                                 failure_policy=KEEP_GOING)
            results = session.run_many(jobs)
            assert results[0] == jobs[0].execute()
            assert results[2] == jobs[2].execute()
            # Only the raising member failed, with its own attempts.
            assert is_failure(results[1]) and results[1].attempts == 2
            assert _counts(session.last_batch) == (3, 3, 0, 2, 1, 1, 0)

    def test_a_pass_draws_no_fault(self, monkeypatch):
        jobs = _pass_jobs()[:2]
        shared = SharedPass(jobs[0].resolved(), (jobs[1].resolved(),),
                            ("base", "rider"))
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        (base, riders), _, _ = _execute_job(
            (shared, {}, obs.shipment(), 0, ()))
        assert base == jobs[0].execute()
        assert riders == [jobs[1].execute()]
