"""Security models, attack kernels, and storage/area accounting.

- :mod:`repro.security.mint_model`  -- analytic tolerated-TRH model for
  MINT's uniform random sampling (calibrated to the public MINT model).
- :mod:`repro.security.mirza_model` -- MIRZA's phase A-D safe-TRH
  accounting (Section VI) and the configuration solver behind Table VII.
- :mod:`repro.security.analysis`    -- proactive-tracker tolerated-TRH vs
  mitigation rate (Table II) with refresh-cannibalisation accounting.
- :mod:`repro.security.area`        -- SRAM/DRAM cell-area model
  (Tables VII, X, XII).
- :mod:`repro.security.attacks`     -- the attack verification harness
  (tracker vs ground-truth oracle at ACT granularity).
- :mod:`repro.security.fuzz`        -- seeded attack-parameter fuzzer
  sweeping :mod:`repro.workloads.patterns` shapes against each
  mitigation through cacheable session jobs.
"""

from repro.security.analysis import (
    acts_per_ref_interval,
    mint_trh_for_mitigation_rate,
    refresh_cannibalization,
)
from repro.security.area import (
    AreaModel,
    mirza_storage_bytes_per_bank,
    prac_counter_bits_for_trhd,
)
from repro.security.lifetime import (
    attack_success_probability,
    lifetime_report,
    mean_time_to_failure_years,
)
from repro.security.mint_model import (
    MINT_FAILURE_EXPONENT,
    mint_tolerated_trhd,
    mint_window_for_trhd,
)
from repro.security.mirza_model import (
    abo_extra_acts,
    mirza_safe_trhd,
    solve_fth,
)
from repro.security.montecarlo import (
    empirical_bound_check,
    escape_probability,
)

_FUZZ_EXPORTS = ("FuzzJob", "FuzzOutcome", "FuzzReport", "FuzzSpec",
                 "fuzz_tracker", "run_fuzz", "sample_pattern")


def __getattr__(name):
    # The fuzzer pulls in the whole session/runner stack, which imports
    # repro.core -- whose config module imports repro.security.area.
    # Loading repro.security.fuzz lazily breaks that cycle without
    # hiding the fuzzer from the package API.
    if name in _FUZZ_EXPORTS:
        from repro.security import fuzz
        return getattr(fuzz, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AreaModel",
    "FuzzJob",
    "FuzzOutcome",
    "FuzzReport",
    "FuzzSpec",
    "MINT_FAILURE_EXPONENT",
    "abo_extra_acts",
    "acts_per_ref_interval",
    "attack_success_probability",
    "empirical_bound_check",
    "escape_probability",
    "fuzz_tracker",
    "run_fuzz",
    "sample_pattern",
    "lifetime_report",
    "mean_time_to_failure_years",
    "mint_tolerated_trhd",
    "mint_trh_for_mitigation_rate",
    "mint_window_for_trhd",
    "mirza_safe_trhd",
    "mirza_storage_bytes_per_bank",
    "prac_counter_bits_for_trhd",
    "refresh_cannibalization",
    "solve_fth",
]
