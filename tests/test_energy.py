"""Tests for the DRAM energy model."""

import pytest

from repro.energy import (
    mirza_sram_power_fraction,
    mitigation_energy_per_act,
)


class TestConstants:
    def test_sram_power_fraction_matches_paper(self):
        # Section VIII-B: 0.6 mW of ~240 mW, approximately 0.25%.
        assert mirza_sram_power_fraction() == pytest.approx(0.0025)


class TestMitigationEnergyPerAct:
    def test_mint_vs_mirza_ratio_is_escape_probability(self):
        mint = mitigation_energy_per_act(48, 1.0)
        mirza = mitigation_energy_per_act(12, 1 / 114)
        # Table VIII's 28.5x reduction carries into energy exactly.
        assert mint / mirza == pytest.approx(28.5, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            mitigation_energy_per_act(0, 1.0)
        with pytest.raises(ValueError):
            mitigation_energy_per_act(8, 1.5)

    def test_zero_escape_costs_nothing(self):
        assert mitigation_energy_per_act(12, 0.0) == 0.0
