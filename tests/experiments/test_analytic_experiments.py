"""Tests for the purely analytic experiment modules (fast)."""

import pytest

from repro.experiments import framework, table1, table7, table10, table11
from repro.experiments.framework import Context


def _run(name, **options):
    return framework.run_experiment(name, Context.make(**options))


def _rendered(name):
    return framework.render_experiment(name, _run(name))


class TestTable1:
    def test_values_match_paper(self):
        values = _run("table1")
        for name, (ddr5, prac) in table1.PAPER_ROWS.items():
            assert values[name] == {"ddr5_ns": ddr5, "prac_ns": prac}

    def test_renders_table(self):
        assert "tRP" in _rendered("table1")


class TestTable7:
    def test_rows_cover_three_thresholds(self):
        rows = _run("table7")
        assert sorted(r.trhd for r in rows) == [500, 1000, 2000]

    def test_preset_and_solved_agree(self):
        for row in _run("table7"):
            paper = table7.PAPER[row.trhd]
            preset = row.preset
            assert (preset.fth, preset.mint_window, preset.num_regions,
                    preset.storage_bytes_per_bank) == (
                paper["fth"], paper["window"], paper["regions"],
                paper["sram"])
            assert abs(row.preset.fth - row.solved.fth) <= \
                0.01 * row.preset.fth
            assert row.solved.is_safe()

    def test_render_mentions_sram(self):
        assert "196" in _rendered("table7")


class TestTable10:
    def test_ratios(self):
        rows = {r.trhd: r for r in _run("table10")}
        for trhd, paper in table10.PAPER.items():
            assert rows[trhd].mirza_bits_per_subarray == paper["mirza_bits"]
            assert rows[trhd].prac_bits_per_subarray == paper["prac_bits"]
            assert rows[trhd].area_ratio == pytest.approx(paper["ratio"],
                                                          rel=0.05)
        # PRAC's disadvantage grows with the threshold: halving it
        # costs PRAC one counter bit but doubles MIRZA's regions.
        assert rows[1000].area_ratio > rows[500].area_ratio \
            > rows[250].area_ratio

    def test_render_shows_area_ratio(self):
        assert "45" in _rendered("table10")


class TestTable11:
    def test_throughput_matches_paper(self):
        rows = {r.mint_window: r for r in _run("table11")}
        assert rows[12].relative_throughput_pct == pytest.approx(
            55.9, rel=0.1)

    def test_window_below_protocol_minimum_rejected(self):
        with pytest.raises(ValueError):
            table11.attack_relative_throughput(3)

    def test_slowdown_factor_inverse(self):
        row = _run("table11", windows=(12,))[0]
        assert row.slowdown_factor == pytest.approx(
            100 / row.relative_throughput_pct)


class TestTable12:
    def test_trr_insecure_mirza_free(self):
        rows = {r.tracker: r for r in _run("table12")}
        assert not rows["TRR"].secure
        assert rows["MIRZA"].cannibalization_pct == 0.0
        assert rows["MIRZA"].storage_bytes == pytest.approx(72, abs=4)

    def test_mint_cannibalization(self):
        rows = {r.tracker: r for r in _run("table12")}
        assert rows["MINT"].cannibalization_pct == pytest.approx(
            22.8, abs=0.5)
