"""Tests for the fleet-lifetime failure analysis."""

import pytest

from repro.security.lifetime import (
    attack_success_probability,
    lifetime_report,
    mean_time_to_failure_years,
    windows_per_year,
)
from repro.security.mint_model import MINT_FAILURE_EXPONENT


class TestWindowsPerYear:
    def test_about_a_billion(self):
        # 32 ms windows: ~986 million per year.
        assert windows_per_year() == pytest.approx(9.86e8, rel=0.01)


class TestAttackSuccessProbability:
    def test_probability_increases_with_everything(self):
        base = attack_success_probability(40, years=1, banks=64)
        assert attack_success_probability(40, years=10, banks=64) > base
        assert attack_success_probability(
            40, years=1, banks=64, machines=10) > base
        assert attack_success_probability(30, years=1, banks=64) > base

    def test_clamps_at_one(self):
        assert attack_success_probability(5, years=10, banks=64) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            attack_success_probability(0)
        with pytest.raises(ValueError):
            attack_success_probability(40, years=-1)

    def test_calibrated_exponent_is_marginal_per_machine(self):
        """k = 28.5 keeps a single machine safe-ish for a year but is
        clearly a per-window budget, not a fleet guarantee -- which is
        why the paper treats the MINT model's threshold as the knob."""
        p = attack_success_probability(MINT_FAILURE_EXPONENT, years=1,
                                       banks=64)
        assert 0.0 < p  # nonzero by construction


class TestMttf:
    def test_mttf_doubles_per_exponent_bit(self):
        a = mean_time_to_failure_years(40, banks=64)
        b = mean_time_to_failure_years(41, banks=64)
        assert b / a == pytest.approx(2.0)

    def test_degenerate_exponent(self):
        assert mean_time_to_failure_years(2, banks=64) == 0.0


class TestLifetimeReport:
    def test_fields_consistent(self):
        report = lifetime_report(45.0)
        assert report.fail_exponent == 45.0
        assert report.single_machine_mttf_years > 0
        assert 0 <= report.single_machine_failure_10y <= \
            report.fleet_1k_failure_10y <= 1.0
