"""Tests for MIRZA's phase A-D safe-TRH accounting (Section VI)."""

import pytest

from repro.params import AboTimings
from repro.security.mint_model import mint_tolerated_trhd
from repro.security.mirza_model import (
    abo_extra_acts,
    mirza_safe_trhd,
    solve_fth,
)


class TestAboExtraActs:
    def test_default_is_seven(self):
        # Figure 10: row C accrues QTH + 7 activations.
        assert abo_extra_acts() == 7

    def test_scales_with_protocol_acts(self):
        generous = AboTimings(acts_during_prologue=5, epilogue_acts=2)
        assert abo_extra_acts(generous) == 2 * 7 - 1


class TestSafeTrh:
    def test_double_sided_formula(self):
        fth, window, qth = 1500, 12, 16
        expected = (fth // 2 + mint_tolerated_trhd(window) + qth
                    + 7 + 1)
        assert mirza_safe_trhd(fth, window, qth) == expected

    def test_phase_monotonicity(self):
        base = mirza_safe_trhd(1000, 12, 16)
        assert mirza_safe_trhd(2000, 12, 16) > base   # bigger FTH
        assert mirza_safe_trhd(1000, 24, 16) > base   # bigger window
        assert mirza_safe_trhd(1000, 12, 32) > base   # bigger QTH


class TestSolveFth:
    @pytest.mark.parametrize("trhd,window,paper_fth", [
        (2000, 16, 3330), (1000, 12, 1500), (500, 8, 660)])
    def test_reproduces_table7(self, trhd, window, paper_fth):
        assert solve_fth(trhd, window) == pytest.approx(paper_fth,
                                                        rel=0.01)

    def test_solution_is_tight(self):
        fth = solve_fth(1000, 12)
        assert mirza_safe_trhd(fth, 12, 16) <= 1000
        assert mirza_safe_trhd(fth + 2, 12, 16) > 1000

    def test_infeasible_window_raises(self):
        with pytest.raises(ValueError):
            solve_fth(100, 128)

    def test_fth_zero_edge(self):
        # The smallest threshold a window can serve has FTH near zero.
        window = 4
        floor = mint_tolerated_trhd(window) + 16 + 7 + 1
        assert solve_fth(floor, window) in (0, 1, 2)
