"""System-lifetime failure analysis for probabilistic trackers.

Randomized trackers like MINT and MIRZA are secure *probabilistically*:
the analytic model bounds the attack success probability per bank per
refresh window at ``2**-k``.  Whether a given ``k`` is acceptable is a
fleet-lifetime question -- windows are 32 ms, systems have dozens of
banks, fleets have thousands of machines, and attacks run for years.
This module does that arithmetic, which is how the calibrated
``k = 28.5`` (see :mod:`repro.security.mint_model`) should be read.

All functions work in log-space where it matters, so fleet-scale
probabilities stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.params import DramTimings, SystemConfig

SECONDS_PER_YEAR = 365.25 * 24 * 3600


def windows_per_year(timings: DramTimings = DramTimings()) -> float:
    """Refresh windows elapsed in one year of uptime (~986 million)."""
    return SECONDS_PER_YEAR / (timings.tREFW * 1e-12)


def attack_success_probability(fail_exponent: float,
                               years: float = 1.0,
                               banks: int = 64,
                               machines: int = 1,
                               timings: DramTimings = DramTimings()
                               ) -> float:
    """P(any bank on any machine ever fails) over the horizon.

    Union bound over ``banks * machines * windows`` independent
    per-window attack opportunities, each succeeding with probability
    ``2**-fail_exponent``.
    """
    if fail_exponent <= 0 or years <= 0 or banks < 1 or machines < 1:
        raise ValueError("arguments must be positive")
    opportunities = banks * machines * windows_per_year(timings) * years
    log_p = math.log(opportunities) - fail_exponent * math.log(2)
    if log_p >= 0:
        return 1.0
    return -math.expm1(log_p) * 0 + math.exp(log_p)  # exp, clamped


def mean_time_to_failure_years(fail_exponent: float,
                               banks: int = 64,
                               machines: int = 1,
                               timings: DramTimings = DramTimings()
                               ) -> float:
    """Expected years until the first successful attack (geometric)."""
    per_window = 2.0 ** -fail_exponent * banks * machines
    if per_window >= 1.0:
        return 0.0
    windows = 1.0 / per_window
    return windows / windows_per_year(timings)


@dataclass(frozen=True)
class LifetimeReport:
    """Lifetime picture of one configuration."""

    fail_exponent: float
    single_machine_mttf_years: float
    fleet_1k_failure_10y: float
    single_machine_failure_10y: float


def lifetime_report(fail_exponent: float,
                    config: SystemConfig = SystemConfig()
                    ) -> LifetimeReport:
    """Bundle the lifetime numbers for one failure exponent."""
    banks = config.geometry.total_banks
    return LifetimeReport(
        fail_exponent=fail_exponent,
        single_machine_mttf_years=mean_time_to_failure_years(
            fail_exponent, banks),
        fleet_1k_failure_10y=attack_success_probability(
            fail_exponent, years=10, banks=banks, machines=1000),
        single_machine_failure_10y=attack_success_probability(
            fail_exponent, years=10, banks=banks),
    )
