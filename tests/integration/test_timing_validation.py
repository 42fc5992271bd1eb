"""End-to-end timing legality: full runs produce zero violations.

These are the strongest correctness tests of the event-free scheduler:
a whole multi-core window is simulated with the command log attached,
and the validator re-derives every DDR5 constraint over the complete
command stream.  The runs cover every tracker family the repository
ships, the ALERT, RFM and DRFM paths under load, and one compiled
sample of every fuzz attack family.
"""

import random

import pytest

from repro.cpu.system import MultiCoreSystem
from repro.mc.validator import TimingValidator
from repro.params import SimScale, SystemConfig
from repro.security.fuzz import FAMILIES, sample_pattern
from repro.sim.runner import (
    baseline_setup,
    calibrated_workload,
    mint_rfm_setup,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    prac_setup,
)
from repro.workloads.patterns import CompileContext
from tests.integration.test_golden_results import (
    FAMILY_SETUPS,
    hammer_workload,
)

SCALE = SimScale(2048)


def run_with_log(setup, workload="tc", scale=SCALE, source=None):
    """Run one window of ``workload`` (or of ``source``, any workload
    source) under ``setup`` with every channel's command log kept."""
    config = SystemConfig()
    sys_config = (config.with_prac_timings() if setup.use_prac_timings
                  else config)
    if source is None:
        source = calibrated_workload(workload, scale, 0, config)
    tracker_factory = None
    if setup.tracker_factory is not None:
        tracker_factory = (
            lambda subch, bank: setup.tracker_factory(0, subch, bank))
    drfm_factory = None
    if setup.drfm_factory is not None:
        drfm_factory = (
            lambda subch: setup.drfm_factory(0, subch))
    system = MultiCoreSystem(
        sys_config,
        trace_factory=source.trace_factory(),
        tracker_factory=tracker_factory,
        mapping_factory=lambda: setup.make_mapping(sys_config),
        rfm_bat=setup.rfm_bat,
        refs_per_window=scale.scaled_refs_per_window(config.timings),
        mlp=source.mlp,
        drfm_factory=drfm_factory,
        record_commands=True,
    )
    system.run(scale.scaled_trefw(config.timings))
    return system, sys_config


def assert_no_violations(system, sys_config, name):
    validator = TimingValidator(sys_config.timings)
    for log in system.command_logs:
        violations = validator.validate(log)
        assert violations == [], f"{name}: {violations[:5]}"


@pytest.mark.parametrize("setup_factory,name", [
    (lambda: baseline_setup(), "baseline"),
    (lambda: prac_setup(1000), "prac"),
    (lambda: mint_rfm_setup(1000), "mint-rfm"),
    (lambda: mirza_setup(1000, SCALE), "mirza"),
    # A DRFM blackout starts after every ACT already booked on the
    # banks it serves, not only after the ACT that released it.
    (lambda: mist_setup(500), "mist-500"),
    (lambda: mist_setup(1000), "mist-1000"),
] + [(FAMILY_SETUPS[name], name) for name in sorted(FAMILY_SETUPS)
     if not name.startswith("mist-")])
def test_full_run_has_no_timing_violations(setup_factory, name):
    system, sys_config = run_with_log(setup_factory())
    assert_no_violations(system, sys_config, name)


@pytest.mark.parametrize("scale", [2048, 512])
@pytest.mark.parametrize("trhd", [500, 1000])
def test_mist_on_mcf_books_no_act_inside_a_blackout(trhd, scale):
    """``mcf`` keeps more banks busy than ``tc``, so more DRFMs serve a
    bank whose latest ACT was booked after the releasing one."""
    system, sys_config = run_with_log(mist_setup(trhd), workload="mcf",
                                      scale=SimScale(scale))
    assert sum(len(log.rfms) for log in system.command_logs) > 0
    assert_no_violations(system, sys_config, f"mist-{trhd}/{scale}")


def test_rfm_heavy_run_has_no_timing_violations():
    system, sys_config = run_with_log(mint_rfm_setup(500), workload="mcf")
    assert sum(len(log.rfms) for log in system.command_logs) > 10
    assert_no_violations(system, sys_config, "mint-rfm-500")


def test_mirza_hammer_has_no_timing_violations():
    system, sys_config = run_with_log(mirza_setup(1000, SCALE),
                                      source=hammer_workload())
    assert sum(mc.alerts for mc in system.mcs) > 0
    assert_no_violations(system, sys_config, "hammer")


@pytest.mark.parametrize("family", FAMILIES)
def test_fuzzed_attack_under_mirza_has_no_timing_violations(family):
    scale = SimScale(4096)
    pattern = sample_pattern(random.Random(11), family, acts=3000,
                             config=SystemConfig())
    source = pattern.workload(CompileContext.make(), cores=(0,), mlp=1)
    system, sys_config = run_with_log(mirza_setup(1000, scale),
                                      scale=scale, source=source)
    assert sum(len(log.acts) for log in system.command_logs) > 100
    assert_no_violations(system, sys_config, family)


def test_logs_capture_real_traffic():
    system, _ = run_with_log(baseline_setup())
    total_acts = sum(len(log.acts) for log in system.command_logs)
    total_refs = sum(len(log.refreshes) for log in system.command_logs)
    assert total_acts > 100
    assert total_refs > 0


def test_mirza_run_logs_alert_stalls():
    # Naive MIRZA at W=8, Q=1 alerts on mcf at this scale (Table V's
    # ALERT-heavy cell), so the comparison runs over real stalls.
    system, sys_config = run_with_log(
        naive_mirza_setup(8, queue_entries=1), workload="mcf")
    stalls = sum(len(log.stalls) for log in system.command_logs)
    alerts = sum(mc.alerts for mc in system.mcs)
    assert alerts > 0
    assert stalls == alerts
    assert_no_violations(system, sys_config, "naive-mirza-w8-q1")
