"""Tests for multi-tenant scenarios and per-tenant accounting."""

import pytest

from repro.dram import mapping
from repro.experiments.intervm import PRESSURES
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

    @pytest.mark.parametrize("pressure", PRESSURES)
    def test_footprints_build_no_row_table(self, pressure, monkeypatch):
        scenario = intervm_scenario(attack_rows=pressure)
        config = SystemConfig()
        geometry = config.geometry
        expected = {}
        for tenant in scenario.tenants:
            space = tenant.address_space.build(geometry)
            if tenant.is_attacker:
                expected[tenant.name] = [space.translate(
                    tenant.attack_subchannel, tenant.attack_bank, 0)[:2]]
            elif tenant.workload:
                expected[tenant.name] = [
                    space.translate(s, b, 0)[:2]
                    for s in range(geometry.subchannels)
                    for b in range(geometry.banks_per_subchannel)]
            else:
                expected[tenant.name] = []

        shuffled = []
        real_shuffle = mapping._shuffled_range

        def record(n, rng):
            shuffled.append(n)
            return real_shuffle(n, rng)

        def no_row_table(*args):
            raise AssertionError("footprints built a row table")

        mapping._bank_permutation.cache_clear()
        monkeypatch.setattr(mapping, "_shuffled_range", record)
        monkeypatch.setattr(mapping, "_permutation_tables", no_row_table)
        footprints = scenario_footprints(scenario, config)
        assert geometry.rows_per_bank not in shuffled
        assert {name: sorted(banks) for name, banks in footprints.items()} \
            == {name: sorted(banks) for name, banks in expected.items()}


class TestTenantWorkload:
    def test_unassigned_core_is_idle(self):
        scenario = TenantScenario((
            Tenant("only", cores=(0,), workload="tc"),))
        workload = TenantWorkload(scenario, scale=SCALE)
        assert workload.tenant_labels(8) == ["only"] + [None] * 7
        assert list(workload.chunk_source(3)) == []

    def test_attacker_cores_hammer_disjoint_regions(self):
        """Figure 12's kernel: each attacking core cycles its own K-row
        region of the attack bank back to back (zero compute), and
        offers one entry more than the window's issue capacity."""
        scenario = TenantScenario((
            Tenant("atk", cores=(0, 1), attack_rows=6, attack_bank=3,
                   attack_subchannel=1),
            Tenant("quiet", cores=(2,), attack_rows=0)))
        workload = TenantWorkload(scenario, scale=SCALE)
        capacity = SCALE.scaled_trefw(SystemConfig().timings) // 250 + 1
        for core, region in ((0, range(0, 6)), (1, range(6, 12))):
            source = workload.chunk_source(core)
            first = source.next_chunk()
            assert len(first) == 256
            assert {entry[:4] for entry in first} == {(250, 1, 1, 3)}
            assert [entry[4] for entry in first[:12]] == list(region) * 2
            assert len(first) + sum(len(chunk) for chunk in iter(
                source.next_chunk, None)) == capacity
        assert list(workload.chunk_source(2)) == []

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
