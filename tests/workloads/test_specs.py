"""Tests for the Table IV workload descriptors."""

import pytest

from repro.workloads.specs import (
    ALL_WORKLOADS,
    GAP_WORKLOADS,
    MIX_WORKLOADS,
    SPEC_WORKLOADS,
    workload_by_name,
)


class TestTable4:
    def test_workload_counts(self):
        # 12 SPEC + 6 GAP + 6 mixes = 24 workloads.
        assert len(SPEC_WORKLOADS) == 12
        assert len(GAP_WORKLOADS) == 6
        assert len(MIX_WORKLOADS) == 6
        assert len(ALL_WORKLOADS) == 24

    def test_unique_names(self):
        names = [w.name for w in ALL_WORKLOADS]
        assert len(set(names)) == len(names)

    def test_all_spec_mpki_above_one(self):
        # Section III-B: only SPEC benchmarks with >= 1 L3-MPKI.
        assert all(w.l3_mpki >= 1.0 for w in SPEC_WORKLOADS)

    def test_lookup_by_name(self):
        cc = workload_by_name("cc")
        assert cc.l3_mpki == 57.9
        assert cc.acts_per_subarray_mean == 1037
        assert cc.acts_per_subarray_std == 542

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            workload_by_name("doom")

    def test_table4_average_row(self):
        n = len(ALL_WORKLOADS)
        mpki, act_pki, util, mean, std = (
            sum(getattr(w, field) for w in ALL_WORKLOADS) / n
            for field in ("l3_mpki", "act_pki", "bus_util_pct",
                          "acts_per_subarray_mean",
                          "acts_per_subarray_std"))
        # Table IV's last row: 24.4 / 18.5 / 63.4 / 806 / 309.
        assert mpki == pytest.approx(24.4, abs=0.5)
        assert act_pki == pytest.approx(18.5, abs=0.5)
        assert util == pytest.approx(63.4, abs=1.0)
        assert mean == pytest.approx(806, abs=10)
        assert std == pytest.approx(309, abs=10)

    def test_acts_per_subarray_range_matches_section_iv(self):
        # Section IV-C: workloads incur ~100-1500 ACTs/subarray/tREFW.
        means = [w.acts_per_subarray_mean for w in ALL_WORKLOADS]
        assert min(means) >= 80
        assert max(means) <= 1500


class TestDerivedParameters:
    def test_miss_burst_at_least_one(self):
        assert all(w.miss_burst >= 1 for w in ALL_WORKLOADS)

    def test_miss_burst_reflects_locality(self):
        assert workload_by_name("bc").miss_burst == 2     # 58.8 / 29.7
        assert workload_by_name("cc").miss_burst == 1     # 57.9 / 51.5
        assert workload_by_name("sssp").miss_burst == 2   # 27.2 / 13

    def test_instructions_per_miss(self):
        assert workload_by_name("blender").instructions_per_miss == 909
        assert workload_by_name("tc").instructions_per_miss == 11

    def test_hot_traffic_fraction_bounded(self):
        for w in ALL_WORKLOADS:
            assert 0.1 <= w.hot_traffic_fraction <= 0.85

    def test_hot_fraction_tracks_relative_spread(self):
        skewed = workload_by_name("cc")       # sigma/mu = 0.52
        flat = workload_by_name("tc")         # sigma/mu = 0.21
        assert skewed.hot_traffic_fraction > flat.hot_traffic_fraction

    def test_acts_per_bank_per_window(self):
        assert workload_by_name("cc").acts_per_bank_per_window == \
            pytest.approx(1037 * 128)
