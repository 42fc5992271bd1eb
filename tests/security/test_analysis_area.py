"""Tests for Table II analysis helpers and the area model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.security.analysis import (
    acts_per_ref_interval,
    mint_trh_for_mitigation_rate,
    mithril_trh_bound,
    refresh_cannibalization,
)
from repro.security.area import (
    AreaModel,
    hydra_storage_bytes_per_bank,
    mint_storage_bytes_per_bank,
    mirza_storage_bytes_per_bank,
    mithril_storage_bytes_per_bank,
    prac_counter_bits_for_trhd,
    pride_storage_bytes_per_bank,
    rct_counter_bits,
    trr_storage_bytes_per_bank,
)


class TestActsPerRefInterval:
    def test_about_75_for_ddr5(self):
        assert acts_per_ref_interval() == 75  # (3900 - 410) / 46


class TestRefreshCannibalization:
    @pytest.mark.parametrize("rate,expected", [
        (1, 0.683), (2, 0.341), (4, 0.171), (8, 0.085)])
    def test_table2_column(self, rate, expected):
        # Table II: 68% / 34% / 17% / 8.5%.
        assert refresh_cannibalization(rate) == pytest.approx(
            expected, abs=0.005)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            refresh_cannibalization(0)


class TestMintTrhForRate:
    @pytest.mark.parametrize("rate,paper", [
        (1, 1500), (2, 2900), (4, 5800), (8, 11600)])
    def test_table2_mint_column(self, rate, paper):
        assert mint_trh_for_mitigation_rate(rate) == pytest.approx(
            paper, rel=0.05)

    def test_monotone(self):
        values = [mint_trh_for_mitigation_rate(r) for r in (1, 2, 4, 8)]
        assert values == sorted(values)


class TestMithrilBound:
    def test_positive_and_monotone_in_rate(self):
        a = mithril_trh_bound(2048, 1)
        b = mithril_trh_bound(2048, 8)
        assert 0 < a < b

    def test_validation(self):
        with pytest.raises(ValueError):
            mithril_trh_bound(0, 1)


class TestStorage:
    def test_rct_counter_bits(self):
        assert rct_counter_bits(1500) == 11
        assert rct_counter_bits(3330) == 12
        assert rct_counter_bits(660) == 10

    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_rct_counter_bits_are_the_fewest_that_hold_fth_plus_one(
            self, fth):
        bits = rct_counter_bits(fth)
        assert 2 ** (bits - 1) <= fth + 1 < 2 ** bits

    @pytest.mark.parametrize("regions,fth,paper_bytes", [
        (64, 3330, 116), (128, 1500, 196), (256, 660, 340)])
    def test_table7_sram_per_bank(self, regions, fth, paper_bytes):
        assert mirza_storage_bytes_per_bank(regions, fth) == paper_bytes

    def test_table12_storage_row(self):
        # TRR 84B, MINT 20B, MIRZA (32 regions at TRHD 4.8K) 72B.
        assert trr_storage_bytes_per_bank() == 84
        assert mint_storage_bytes_per_bank() == 20
        bytes_ = mirza_storage_bytes_per_bank(32, 9000)
        assert bytes_ == pytest.approx(72, abs=4)

    def test_mithril_7kb(self):
        assert mithril_storage_bytes_per_bank() == 7168

    def test_pride_fifo_9_bytes(self):
        assert pride_storage_bytes_per_bank() == 9

    def test_hydra_sram_1232_bytes(self):
        assert hydra_storage_bytes_per_bank() == 1232


class TestPracBits:
    def test_table10_bit_widths(self):
        assert prac_counter_bits_for_trhd(1000) == 10
        assert prac_counter_bits_for_trhd(500) == 9
        assert prac_counter_bits_for_trhd(250) == 8

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prac_counter_bits_for_trhd(0)

    @given(st.integers(min_value=2, max_value=10 ** 6))
    def test_fewest_bits_with_trhd_states(self, trhd):
        bits = prac_counter_bits_for_trhd(trhd)
        assert 2 ** (bits - 1) < trhd <= 2 ** bits


class TestAreaModel:
    @pytest.mark.parametrize("trhd,regions,fth,paper_ratio", [
        (1000, 128, 1500, 45.0),
        (500, 256, 660, 22.5),
        (250, 512, 316, 11.2),
    ])
    def test_table10_ratios(self, trhd, regions, fth, paper_ratio):
        model = AreaModel()
        ratio = model.prac_to_mirza_ratio(trhd, regions, fth)
        assert ratio == pytest.approx(paper_ratio, rel=0.05)

    def test_mirza_bits_per_subarray_table10(self):
        model = AreaModel()
        assert model.mirza_bits_per_subarray(128, 1500) == 11
        assert model.mirza_bits_per_subarray(256, 660) == 20
        assert model.mirza_bits_per_subarray(512, 316) == 36

    def test_prac_bits_per_subarray(self):
        model = AreaModel()
        assert model.prac_bits_per_subarray(1000) == 10 * 1024

    def test_cell_area_constants(self):
        model = AreaModel()
        assert model.dram_cell_f2 == 6.0
        assert model.sram_cell_f2 == 120.0
