"""Tests for multi-tenant scenarios and per-tenant accounting."""

import pytest

from repro.params import SimScale, SystemConfig
from repro.sim.runner import baseline_setup, simulate_tenants
from repro.workloads.tenants import (
    Tenant,
    TenantScenario,
    TenantWorkload,
    intervm_scenario,
    scenario_footprints,
)

SCALE = SimScale(4096)


class TestScenarioShape:
    def test_intervm_layout_and_labels(self):
        scenario = intervm_scenario(attack_rows=8, victim="mcf",
                                    attacker_cores=2)
        scenario.validate(8)
        assert scenario.label() == "attacker:atk8x2+victim:mcfx6"
        by_core = scenario.tenant_for_core()
        assert by_core[0].name == "attacker"
        assert by_core[7].name == "victim"

    def test_overlapping_cores_rejected(self):
        scenario = TenantScenario((
            Tenant("a", cores=(0, 1), workload="tc"),
            Tenant("b", cores=(1, 2), workload="mcf"),
        ))
        with pytest.raises(ValueError, match="core"):
            scenario.validate(8)

    def test_out_of_range_core_rejected(self):
        scenario = TenantScenario((
            Tenant("a", cores=(9,), workload="tc"),))
        with pytest.raises(ValueError):
            scenario.validate(8)

    def test_tenant_cannot_be_both_kinds(self):
        with pytest.raises(ValueError):
            Tenant("x", cores=(0,), workload="tc",
                   attack_rows=4).validate()

    def test_footprints_respect_address_spaces(self):
        scenario = intervm_scenario(attack_rows=8)
        config = SystemConfig()
        footprints = scenario_footprints(scenario, config)
        assert len(footprints["attacker"]) == 1
        geometry = config.geometry
        assert len(footprints["victim"]) == \
            geometry.subchannels * geometry.banks_per_subchannel
        for subch, bank in footprints["attacker"]:
            assert 0 <= subch < geometry.subchannels
            assert 0 <= bank < geometry.banks_per_subchannel


class TestTenantWorkload:
    def test_unassigned_core_is_idle(self):
        scenario = TenantScenario((
            Tenant("only", cores=(0,), workload="tc"),))
        workload = TenantWorkload(scenario, scale=SCALE)
        assert workload.tenant_labels(8) == ["only"] + [None] * 7
        assert list(workload.chunk_source(3)) == []

    def test_translation_keeps_chunk_contract(self):
        scenario = intervm_scenario(attack_rows=4, victim="mcf")
        workload = TenantWorkload(scenario, scale=SCALE)
        chunk = workload.chunk_source(0).next_chunk()
        assert chunk
        geometry = SystemConfig().geometry
        for compute_ps, instructions, subch, bank, row in chunk:
            assert 0 <= subch < geometry.subchannels
            assert 0 <= bank < geometry.banks_per_subchannel
            assert 0 <= row < geometry.rows_per_bank


class TestTenantAccounting:
    def test_result_carries_tenant_identity(self):
        result = simulate_tenants(
            intervm_scenario(attack_rows=4, victim="mcf"),
            baseline_setup(), SCALE)
        assert result.tenant_names() == ["attacker", "victim"]
        assert set(result.tenant_ipc()) == {"attacker", "victim"}
        assert len(result.unmitigated_by_bank) == 2

    def test_attacker_pressure_lowers_victim_ipc(self):
        quiet = simulate_tenants(
            intervm_scenario(attack_rows=0, victim="mcf"),
            baseline_setup(), SimScale(2048))
        loud = simulate_tenants(
            intervm_scenario(attack_rows=16, victim="mcf"),
            baseline_setup(), SimScale(2048))
        assert loud.tenant_ipc()["victim"] \
            < quiet.tenant_ipc()["victim"]
        assert loud.tenant_slowdown_pct(quiet, "victim") > 0

    def test_exposure_is_bounded_by_footprint(self):
        scenario = intervm_scenario(attack_rows=8, victim="mcf")
        result = simulate_tenants(scenario, baseline_setup(), SCALE)
        footprints = scenario_footprints(scenario, result.config)
        exposure = result.tenant_exposure(footprints)
        overall = max(max(banks) for banks in
                      result.unmitigated_by_bank)
        assert 0 <= exposure["attacker"] <= overall
        assert 0 <= exposure["victim"] <= overall
