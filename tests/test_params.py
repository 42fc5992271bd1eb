"""Tests for repro.params: Table I timings and derived quantities."""

import dataclasses

import pytest

from repro.params import (
    AboTimings,
    DramGeometry,
    DramTimings,
    MitigationCosts,
    SimScale,
    SystemConfig,
    max_acts_per_bank_per_trefw,
    max_acts_per_channel_per_trefw,
    ns,
)


class TestNs:
    def test_integer_nanoseconds(self):
        assert ns(14) == 14_000

    def test_fractional_nanoseconds_round(self):
        assert ns(13.333) == 13_333

    def test_zero(self):
        assert ns(0) == 0


class TestDramTimings:
    def test_table1_defaults(self):
        t = DramTimings()
        assert t.tRCD == ns(14)
        assert t.tRP == ns(14)
        assert t.tRAS == ns(32)
        assert t.tRC == ns(46)
        assert t.tREFI == ns(3900)
        assert t.tRFC == ns(410)
        assert t.tREFW == 32 * 1000 * 1000 * 1000  # 32 ms in ps

    def test_prac_mode_inflates_trp_and_trc(self):
        p = DramTimings().with_prac()
        assert p.tRP == ns(36)
        assert p.tRC == ns(52)
        assert p.tRAS == ns(16)

    def test_prac_mode_keeps_trcd(self):
        assert DramTimings().with_prac().tRCD == ns(14)

    def test_refs_per_trefw_is_8192(self):
        assert DramTimings().refs_per_trefw == 8205  # 32ms / 3900ns

    def test_row_miss_latency(self):
        t = DramTimings()
        assert t.row_miss_latency == t.tRP + t.tRCD + t.tCAS

    def test_row_hit_latency(self):
        assert DramTimings().row_hit_latency == ns(14)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DramTimings().tRP = 0


class TestAboTimings:
    def test_figure4_constants(self):
        abo = AboTimings()
        assert abo.prologue == ns(180)
        assert abo.stall == ns(350)
        assert abo.latency == ns(530)

    def test_four_acts_between_alerts(self):
        # Section V-D: 3 prologue ACTs plus 1 mandatory epilogue ACT.
        assert AboTimings().acts_between_alerts == 4


class TestDramGeometry:
    def test_table3_defaults(self):
        g = DramGeometry()
        assert g.total_banks == 64
        assert g.rows_per_bank == 128 * 1024
        assert g.subarrays_per_bank == 128
        assert g.refs_per_subarray == 64

    def test_capacity_is_32gb(self):
        assert DramGeometry().capacity_bytes == 32 * 1024 ** 3

    def test_small_geometry(self, small_geometry):
        assert small_geometry.subarrays_per_bank == 4
        assert small_geometry.total_banks == 8


class TestMitigationCosts:
    def test_bounded_refresh_time(self):
        assert MitigationCosts().mitigation_time == ns(280)

    def test_blast_radius_victims(self):
        assert MitigationCosts().victims_per_mitigation == 4


class TestSystemConfig:
    def test_with_prac_timings_returns_new_config(self):
        base = SystemConfig()
        prac = base.with_prac_timings()
        assert prac.timings.tRP == ns(36)
        assert base.timings.tRP == ns(14)

    def test_core_cycle_at_4ghz(self):
        assert SystemConfig().core_cycle_ps == 250.0

    def test_table3_core_parameters(self):
        c = SystemConfig()
        assert c.num_cores == 8
        assert c.rob_entries == 392
        assert c.issue_width == 4
        assert c.llc_bytes == 16 * 1024 * 1024


class TestSimScale:
    def test_identity_scale(self):
        s = SimScale(1)
        t = DramTimings()
        assert s.scaled_trefw(t) == t.tREFW
        assert s.scale_threshold(1500) == 1500

    def test_scale_divides_window_and_threshold(self):
        s = SimScale(64)
        t = DramTimings()
        assert s.scaled_trefw(t) == t.tREFW // 64
        assert s.scale_threshold(1500) == 23
        assert s.scale_count(1037.0) == pytest.approx(1037 / 64)

    def test_scaled_refs_never_zero(self):
        s = SimScale(10 ** 9)
        assert s.scaled_refs_per_window(DramTimings()) == 1

    def test_threshold_never_zero(self):
        assert SimScale(10 ** 6).scale_threshold(10) == 1

    @pytest.mark.parametrize("bad", [0, -4])
    def test_non_positive_scale_rejected(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            SimScale(bad)


class TestWorstCaseBounds:
    def test_max_acts_per_bank_near_621k(self):
        # Section IV-C: ~621K ACTs per bank per tREFW.
        acts = max_acts_per_bank_per_trefw()
        assert 600_000 <= acts <= 640_000

    def test_max_acts_per_channel_near_8_8m(self):
        # Footnote 2: ~8.8M ACTs per (sub)channel per tREFW.
        acts = max_acts_per_channel_per_trefw()
        assert 8_000_000 <= acts <= 9_700_000

    def test_bank_bound_below_channel_bound(self):
        assert max_acts_per_bank_per_trefw() < \
            max_acts_per_channel_per_trefw()
