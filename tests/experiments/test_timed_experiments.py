"""Structural tests for the timed experiment modules.

Run at an extreme time scale with a single light workload: these check
shapes, keys, and bookkeeping rather than the numbers themselves (the
report's checks and claims do that at meaningful scales).
"""

import pytest

from repro.experiments import framework
from repro.experiments.framework import Context
from repro.params import SimScale

SCALE = SimScale(4096)
WORKLOADS = ["tc"]


def _run(name, **knobs):
    """``name`` over ``WORKLOADS``; ``scale=`` sets the timed window
    divisor, ``cgf=`` the counting one."""
    return framework.run_experiment(
        name, Context.make(workloads=WORKLOADS, **knobs))


@pytest.fixture(scope="module")
def fig3_result():
    return _run("fig3", scale=SCALE, thresholds=(1000,))


@pytest.fixture(scope="module")
def fig11_result():
    return _run("fig11", scale=SCALE, thresholds=(1000,))


class TestFig3:
    def test_keys_present(self, fig3_result):
        assert set(fig3_result.mint_slowdown) == {1000}
        assert "tc" in fig3_result.per_workload
        per = fig3_result.per_workload["tc"]
        assert {"prac", "mint-1000", "mint-rp-1000"} <= set(per)

    def test_refresh_power_nonnegative(self, fig3_result):
        assert fig3_result.mint_refresh_power[1000] >= 0.0


class TestFig11:
    def test_structure(self, fig11_result):
        assert set(fig11_result.mirza_slowdown) == {1000}
        assert fig11_result.prac_alert_rate == 0.0
        assert fig11_result.mirza_alert_rate[1000] >= 0.0


class TestTable5:
    def test_grid_keys(self):
        result = _run("table5", scale=SCALE, windows=(24,),
                      queue_sizes=(1, 4))
        assert set(result.slowdown) == {(24, 1), (24, 4)}


class TestTable8:
    def test_rows_and_reduction(self):
        rows = _run("table8", cgf=SimScale(256), thresholds=(1000,))
        assert len(rows) == 1
        row = rows[0]
        assert 0.0 <= row.escape_probability <= 1.0
        assert row.mint_rate == 1 / 48
        if row.mirza_rate:
            assert row.reduction == pytest.approx(
                row.mint_rate / row.mirza_rate)


class TestTable9:
    def test_points_respected(self):
        rows = _run("table9", scale=SCALE, points=((12, 1500),))
        assert len(rows) == 1
        assert rows[0].mint_window == 12
        assert rows[0].sram_bytes == 196


class TestFig6:
    def test_divergence_positive(self):
        result = _run("fig6", cgf=SimScale(256))
        assert result.worst_case > 600_000
        assert result.divergence > 1.0


class TestFig13:
    def test_overheads_ordered(self):
        result = _run("fig13", cgf=SimScale(256), thresholds=(1000,))
        assert result.mirza_overhead[1000] <= \
            result.mint_overhead[1000]


class TestTable13:
    def test_all_trackers_at_all_thresholds(self):
        rows = _run("table13", scale=SCALE)
        keys = {(r.trhd, r.tracker) for r in rows}
        assert len(keys) == 9  # 3 thresholds x 3 trackers


class TestFig1:
    def test_summary_fields(self):
        summary = _run("fig1", cgf=SimScale(256))
        assert summary.sram_bytes_per_bank == 196
        assert summary.area_reduction == pytest.approx(46.5, abs=1)
        assert summary.mitigation_reduction > 0
