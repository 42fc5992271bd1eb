"""Tests for the MINT analytic security model."""

import pytest

from repro.security.mint_model import (
    MINT_FAILURE_EXPONENT,
    mint_tolerated_trhd,
    mint_unmitigated_bound,
    mint_window_for_trhd,
)


class TestMintToleratedTrh:
    def test_anchor_window_75_is_1500(self):
        # Section II-E: MINT tolerates TRHD 1.5K with a window of 75.
        assert mint_tolerated_trhd(75) == pytest.approx(1500, rel=0.03)

    @pytest.mark.parametrize("window,implied", [
        # Implied by Table VII: FTH = 2*(TRHD - MINT_TRHD - QTH - 7).
        (16, 2000 - 3330 // 2 - 16 - 7),
        (12, 1000 - 1500 // 2 - 16 - 7),
        (8, 500 - 660 // 2 - 16 - 7),
    ])
    def test_matches_paper_table7_implied_values(self, window, implied):
        assert mint_tolerated_trhd(window) == pytest.approx(
            implied, rel=0.05)

    def test_monotone_in_window(self):
        values = [mint_tolerated_trhd(w) for w in (4, 8, 16, 32, 64)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_roughly_linear_in_window(self):
        # N(W) ~ 0.693 k (W - 0.5): doubling W ~doubles the threshold.
        ratio = mint_tolerated_trhd(128) / mint_tolerated_trhd(64)
        assert 1.9 < ratio < 2.1

    def test_window_one_tolerates_almost_nothing(self):
        assert mint_tolerated_trhd(1) == 1


class TestUnmitigatedBound:
    def test_slow_hammer_is_optimal(self):
        # d = 1 maximises the unmitigated count.
        for d in (2, 4, 8):
            assert mint_unmitigated_bound(16, acts_per_window=1) > \
                mint_unmitigated_bound(16, acts_per_window=d)

    def test_validation(self):
        with pytest.raises(ValueError):
            mint_unmitigated_bound(0)
        with pytest.raises(ValueError):
            mint_unmitigated_bound(8, acts_per_window=9)
        with pytest.raises(ValueError):
            mint_unmitigated_bound(8, acts_per_window=0)

    def test_higher_exponent_is_stricter_for_attacker(self):
        assert mint_unmitigated_bound(16, fail_exponent=40) > \
            mint_unmitigated_bound(16, fail_exponent=20)


class TestWindowForTrhd:
    def test_inverse_of_tolerated(self):
        for trhd in (200, 500, 1000, 2000, 4800):
            w = mint_window_for_trhd(trhd)
            assert mint_tolerated_trhd(w) <= trhd
            assert mint_tolerated_trhd(w + 1) > trhd

    def test_threshold_too_low(self):
        with pytest.raises(ValueError):
            mint_window_for_trhd(0)

    def test_default_exponent_calibration(self):
        # The calibrated exponent stays near the published model.
        assert 27 < MINT_FAILURE_EXPONENT < 30


class TestMonteCarloAgreement:
    def test_escape_probability_matches_model(self):
        """Empirical check: hammering d=1 per window for m windows
        escapes with probability (1 - 1/W)^m."""
        import random

        from repro.core.mint import MintSampler

        W, m, trials = 8, 16, 2000
        escapes = 0
        rng = random.Random(123)
        for t in range(trials):
            sampler = MintSampler(W, random.Random(rng.random()))
            escaped = True
            for _ in range(m):
                for pos in range(W):
                    row = 1 if pos == 0 else 100 + pos
                    if sampler.observe(row) == 1:
                        escaped = False
            if escaped:
                escapes += 1
        expected = (1 - 1 / W) ** m
        assert escapes / trials == pytest.approx(expected, abs=0.04)
