"""Tests for the opt-in kernel profiling layer."""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.experiments import framework
from repro.experiments.common import CgfJob
from repro.obs import profile as profile_impl
from repro.params import SimScale
from repro.sim import runner
from repro.sim.profile import KernelProfile, profiling
from repro.sim.registry import setup_by_name
from repro.sim.runner import calibrated_workload, simulate
from repro.sim.session import SimJob, SimSession


def test_inactive_by_default():
    assert "profile" not in obs.requested()
    assert profile_impl._ACTIVE is None


def test_profiling_scope_installs_and_restores():
    assert profile_impl._ACTIVE is None
    with profiling() as prof:
        assert isinstance(prof, KernelProfile)
        # The hot paths read the module's slot directly.
        assert profile_impl._ACTIVE is prof
        assert "profile" in obs.requested()
    assert profile_impl._ACTIVE is None


def test_profiling_nests():
    with profiling() as outer:
        with profiling() as inner:
            assert profile_impl._ACTIVE is inner
            inner.add_calibration(0.5)
        assert profile_impl._ACTIVE is outer
    # The inner profile folds into the enclosing one on exit.
    assert (outer.calibrations, outer.calibration_s) == (1, 0.5)


def test_suppressed_restores_previous():
    with profiling() as prof:
        with obs.suppressed():
            assert profile_impl._ACTIVE is None
        assert profile_impl._ACTIVE is prof
    assert profile_impl._ACTIVE is None


def test_simulate_populates_profile():
    scale = SimScale(8192)
    # Warm the calibration cache so the profile covers exactly one run.
    calibrated_workload("mcf", scale, seed=0)
    with profiling() as prof:
        result = simulate("mcf", setup_by_name("mirza-1000"),
                          scale, seed=0)
    assert prof.runs == 1
    assert prof.requests == result.total_requests > 0
    assert prof.activations == result.total_activations > 0
    assert prof.refs > 0
    assert prof.wall_s > 0
    assert prof.serve_s > 0
    assert prof.trace_s > 0
    # Sub-phases are measured inside the serve window.
    assert prof.requests_per_sec() > 0
    assert prof.acts_per_sec() > 0


def _six_jobs():
    scale = SimScale(8192)
    return [SimJob(name, setup_by_name(setup, scale), scale)
            for name in ("tc", "mcf")
            for setup in ("mirza-1000", "prac-1000", "mint-rfm-1000")]


def test_calibration_probes_are_not_kernel_runs(monkeypatch):
    # Cold calibration keys: each runs probe windows once, in this
    # process when serial and in a worker when pooled.  Neither may
    # show up as profiled kernel work.
    jobs = _six_jobs()
    for workers in (1, 2):
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        session = SimSession(disk_cache=False, max_workers=workers)
        with profiling() as prof:
            results = session.run_many(jobs)
        assert prof.runs == len(jobs), workers
        assert prof.requests == sum(r.total_requests for r in results)


def test_pooled_batch_calibrates_each_key_once(monkeypatch):
    # Two workload keys, six jobs: the session probes each key once,
    # and the jobs (here or in the workers) read the shipped values
    # instead of probing again.
    jobs = _six_jobs()
    for workers in (1, 2):
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        session = SimSession(disk_cache=False, max_workers=workers)
        with profiling() as prof:
            session.run_many(jobs)
        assert (prof.calibrations, prof.runs) == (2, 6), workers
        assert prof.calibration_s > 0
        assert "calibration                    2  keys probed" \
            in prof.report()


def test_counting_passes_are_profiled_alike_serial_and_pooled():
    # table6, table8 and fig13 over two workloads are two merged
    # counting passes; each records its ACTs, filters and scans (one
    # per mapping and region count) once, in whichever process
    # executes it.
    ctx = framework.Context.make(workloads=("tc", "mcf"),
                                 cgf=SimScale(512))
    counted = []
    for workers in (1, 2):
        plan = framework.plan(["table6", "table8", "fig13"], ctx,
                              SimSession(disk_cache=False,
                                         max_workers=workers))
        with profiling() as prof:
            plan.execute()
        counted.append((prof.counting_passes, prof.counting_acts,
                        prof.counting_filters, prof.counting_scans))
        assert prof.counting_s > 0 and prof.runs == 0
        assert (f"{prof.counting_filters} filters in "
                f"{prof.counting_scans} scans, in ") in prof.report()
    jobs = [job for job in plan._jobs if isinstance(job, CgfJob)]
    acts = sum(job.execute().cgf[0].total_acts for job in jobs)
    filters = sum(len(job.filters) for job in jobs)
    scans = sum(len({(f.mapping_kind, f.num_regions) for f in job.filters})
                for job in jobs)
    assert scans < filters
    assert counted == [(2, acts, filters, scans)] * 2


def test_shared_passes_are_profiled_alike_serial_and_pooled():
    # One pass for tc: MIRZA-1000 rides to the end, naive MIRZA at
    # Q=1 diverges and reruns plain.
    scale = SimScale(8192)
    jobs = [SimJob("tc", setup, scale)
            for setup in (setup_by_name("baseline"),
                          setup_by_name("mirza-1000", scale),
                          runner.naive_mirza_setup(8, queue_entries=1))]
    calibrated_workload("tc", scale, seed=0)
    for workers in (1, 2):
        with profiling() as prof:
            SimSession(disk_cache=False,
                       max_workers=workers).run_many(jobs)
        assert (prof.shared_passes, prof.riders, prof.riders_diverged,
                prof.runs) == (1, 1, 1, 2), workers
        assert "shared passes                  1  1 riders served, " \
            "1 diverged, 2 riders on 2 trackers" in prof.report()
    # The riders' per-ACT tracker time lands in ``trackers``.
    with profiling() as plain:
        simulate("tc", setup_by_name("baseline"), scale)
    with profiling() as shared:
        runner.simulate_shared("tc", [jobs[1].setup] * 3, scale)
    assert shared.trackers_s > 2 * plain.trackers_s
    merged = KernelProfile()
    merged.merge(prof.to_dict())
    merged.merge(prof)
    assert (merged.shared_passes, merged.riders,
            merged.riders_diverged, merged.rider_sets) == (2, 2, 2, 4)


def test_profiling_does_not_change_results():
    scale = SimScale(8192)
    setup = setup_by_name("mirza-1000")
    plain = simulate("tc", setup, scale, seed=0)
    with profiling():
        profiled = simulate("tc", setup, scale, seed=0)
    assert profiled.total_requests == plain.total_requests
    assert profiled.total_activations == plain.total_activations
    assert profiled.ipc == plain.ipc


def test_report_renders_phases():
    prof = KernelProfile()
    prof.add_run(2.0, 10 ** 12, 1000, 600)
    prof.serve_s = 1.0
    prof.refresh_s = 0.25
    prof.trackers_s = 0.25
    prof.trace_s = 0.5
    prof.refs = 42
    text = prof.report()
    assert "trace generation" in text
    assert "controller scheduling" in text
    assert "demand refresh" in text
    assert "mitigation trackers" in text
    assert "500/s" in text  # 1000 requests / 2.0s wall
    assert "42" in text
    assert "counting passes" not in text
    assert "calibration" not in text
    assert "shared passes" not in text
    prof.add_shared_pass(14, 3, 8)
    assert "shared passes                  1  14 riders served, " \
        "3 diverged, 17 riders on 8 trackers" in prof.report()
    prof.add_calibration(0.25)
    assert "calibration                    1  keys probed in 0.250s" \
        in prof.report()
    prof.add_counting_pass(3000, 10, 4, 0.5)
    assert "counting passes                1  3,000 ACTs, 10 filters " \
        "in 4 scans, in 0.500s (6,000/s)" in prof.report()
    merged = KernelProfile()
    merged.merge(prof.to_dict())
    merged.merge(prof)
    assert (merged.counting_passes, merged.counting_acts,
            merged.counting_filters, merged.counting_scans) \
        == (2, 6000, 20, 8)
    assert "2  6,000 ACTs, 20 filters in 8 scans, in 1.000s" \
        in merged.report()
