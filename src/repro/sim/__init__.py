"""Experiment runner: (workload x mitigation) -> measurements.

:mod:`repro.sim.runner` builds fully-wired systems for each mitigation
configuration the paper evaluates; :mod:`repro.sim.session` is the
execution substrate -- a :class:`SimSession` owning a content-addressed
result cache and process-pool fan-out, so sweeps parallelise across
cores and repeated runs are served from disk.
:mod:`repro.sim.registry` names the paper's setups ("mirza-1000", ...)
for CLIs and sweep scripts, and :mod:`repro.sim.stats` holds the small
numeric/table helpers the experiment modules share.
:mod:`repro.sim.backend` selects *how* the kernel under
:func:`simulate` executes -- per-command (``event``) or chunked
array-at-a-time (``array``), bit-identical by contract.
"""

from repro.sim.backend import (
    ArrayBackend,
    EventBackend,
    KernelBackend,
    available_backends,
    backend_by_name,
    register_backend,
    resolve_backend,
)
from repro.sim.runner import (
    MitigationSetup,
    baseline_setup,
    calibrated_workload,
    mint_rfm_setup,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    prac_setup,
    run_baseline,
    run_workload,
    simulate,
    slowdown_for,
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
    "ArrayBackend",
    "BatchStats",
    "EventBackend",
    "FailurePolicy",
    "JobFailed",
    "JobFailure",
    "KernelBackend",
    "MitigationSetup",
    "SimJob",
    "SimSession",
    "available_backends",
    "available_setups",
    "backend_by_name",
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
    "register_backend",
    "register_job_type",
    "register_setup",
    "resolve_backend",
    "run_baseline",
    "run_workload",
    "set_default_session",
    "setup_by_name",
    "simulate",
    "slowdown_for",
    "using_session",
]
