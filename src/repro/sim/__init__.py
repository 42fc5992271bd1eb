"""Experiment runner: (workload x mitigation) -> measurements.

:mod:`repro.sim.runner` builds fully-wired systems for each mitigation
configuration the paper evaluates and runs one simulation;
:mod:`repro.sim.session` is the execution substrate -- a
:class:`SimSession` owning a content-addressed result cache and
process-pool fan-out, so sweeps parallelise across cores and repeated
runs are served from disk.  A session is the one way to run jobs:
``SimSession().run(SimJob(...))`` for one, ``run_many`` for a batch,
and ``slowdowns`` for protected jobs against their unprotected
baselines.
:mod:`repro.sim.registry` names the paper's setups ("mirza-1000", ...)
for CLIs and sweep scripts, and :mod:`repro.sim.stats` holds the small
numeric/table helpers the experiment modules share.
"""

from repro.sim.runner import (
    MitigationSetup,
    baseline_setup,
    calibrated_workload,
    mint_rfm_setup,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    prac_setup,
    simulate,
)
from repro.sim.registry import (
    available_setups,
    register_setup,
    setup_by_name,
)
from repro.sim.session import (
    BatchStats,
    FailurePolicy,
    JobFailed,
    JobFailure,
    SimJob,
    SimSession,
    get_default_session,
    is_failure,
    job_token,
    register_job_type,
    set_default_session,
    using_session,
)
__all__ = [
    "BatchStats",
    "FailurePolicy",
    "JobFailed",
    "JobFailure",
    "MitigationSetup",
    "SimJob",
    "SimSession",
    "available_setups",
    "is_failure",
    "baseline_setup",
    "calibrated_workload",
    "get_default_session",
    "job_token",
    "mint_rfm_setup",
    "mirza_setup",
    "mist_setup",
    "naive_mirza_setup",
    "prac_setup",
    "register_job_type",
    "register_setup",
    "set_default_session",
    "setup_by_name",
    "simulate",
    "using_session",
]
