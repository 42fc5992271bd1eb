"""Tests for the MINT window sampler."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mint import MintSampler


class TestMintSampler:
    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            MintSampler(0)

    def test_exactly_one_selection_per_window(self):
        s = MintSampler(12, random.Random(3))
        for _ in range(100):
            selections = [s.observe(row) for row in range(12)]
            picked = [x for x in selections if x is not None]
            assert len(picked) == 1

    def test_window_of_one_selects_everything(self):
        s = MintSampler(1, random.Random(0))
        assert all(s.observe(r) == r for r in range(20))

    def test_selected_row_is_the_observed_row(self):
        s = MintSampler(4, random.Random(9))
        for window in range(50):
            rows = [100 + window * 4 + i for i in range(4)]
            picked = [s.observe(r) for r in rows]
            hit = [p for p in picked if p is not None][0]
            assert hit in rows

    def test_uniformity_over_positions(self):
        # Each of the W positions must be picked ~uniformly.
        W = 8
        s = MintSampler(W, random.Random(42))
        counts = Counter()
        trials = 4000
        for _ in range(trials):
            for pos in range(W):
                if s.observe(pos) is not None:
                    counts[pos] += 1
        expected = trials / W
        for pos in range(W):
            assert abs(counts[pos] - expected) < 5 * (expected ** 0.5)

    def test_counters(self):
        s = MintSampler(4, random.Random(1))
        for i in range(10):
            s.observe(i)
        assert s.observed == 10
        assert s.windows_completed == 2
        assert s.selected == 2

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60)
    def test_one_selection_per_window_property(self, window, seed):
        s = MintSampler(window, random.Random(seed))
        for _ in range(5):
            picked = sum(
                1 for i in range(window) if s.observe(i) is not None)
            assert picked == 1

    def test_deterministic_under_seed(self):
        a = MintSampler(16, random.Random(7))
        b = MintSampler(16, random.Random(7))
        seq_a = [a.observe(i) for i in range(160)]
        seq_b = [b.observe(i) for i in range(160)]
        assert seq_a == seq_b
