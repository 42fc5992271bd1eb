"""Tests for the opt-in kernel profiling layer."""

from __future__ import annotations

from collections import OrderedDict

from repro import _profile as profile_impl
from repro.params import SimScale
from repro.sim import runner
from repro.sim.profile import (
    KernelProfile,
    active,
    enabled_by_env,
    install,
    maybe_profile_from_env,
    profiling,
)
from repro.sim.registry import setup_by_name
from repro.sim.runner import calibrated_workload, simulate
from repro.sim.session import SimJob, SimSession


def test_inactive_by_default():
    assert active() is None
    assert profile_impl._ACTIVE is None


def test_profiling_scope_installs_and_restores():
    assert active() is None
    with profiling() as prof:
        assert active() is prof
        # The hot paths read the implementation module's slot directly.
        assert profile_impl._ACTIVE is prof
    assert active() is None


def test_profiling_nests():
    with profiling() as outer:
        with profiling() as inner:
            assert active() is inner
        assert active() is outer


def test_install_returns_previous():
    prof = KernelProfile()
    assert install(prof) is None
    try:
        assert active() is prof
    finally:
        assert install(None) is prof
    assert active() is None


def test_enabled_by_env(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert not enabled_by_env()
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert enabled_by_env(), value
    for value in ("", "0", "false", "off"):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert not enabled_by_env(), value


def test_maybe_profile_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    with maybe_profile_from_env() as prof:
        assert prof is None
    with maybe_profile_from_env(force=True) as prof:
        assert prof is not None
    monkeypatch.setenv("REPRO_PROFILE", "1")
    with maybe_profile_from_env() as prof:
        assert prof is not None
    assert active() is None


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


def test_calibration_probes_are_not_kernel_runs(monkeypatch):
    # Cold calibration keys: every job's first calibration runs probe
    # windows, in this process when serial and in the workers when
    # pooled.  Neither may show up as profiled kernel work.
    scale = SimScale(8192)
    jobs = [SimJob(name, setup_by_name(setup, scale), scale)
            for name in ("tc", "mcf")
            for setup in ("mirza-1000", "prac-1000", "mint-rfm-1000")]
    for workers in (1, 2):
        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
        session = SimSession(disk_cache=False, max_workers=workers)
        with profiling() as prof:
            results = session.run_many(jobs)
        assert prof.runs == len(jobs), workers
        assert prof.requests == sum(r.total_requests for r in results)


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
