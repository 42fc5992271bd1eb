"""Tests for the extension exhibits."""

import pytest

from repro.experiments import framework
from repro.experiments.framework import Context


@pytest.fixture(scope="module")
def tables():
    return framework.run_experiment("extras", Context.make())


class TestExtras:
    def test_lifetime_table_mentions_calibrated_k(self, tables):
        assert "28.5" in tables["lifetime"]

    def test_energy_table_reproduces_reduction_ratios(self, tables):
        out = tables["energy"]
        # The paper's Table VIII ratios carried into energy.
        assert "10x" in out
        assert "28x" in out
        assert "125x" in out

    def test_storage_comparison_orders_trackers(self, tables):
        out = tables["storage"]
        # MIRZA sits far below the CAM trackers.
        assert "7,168" in out
        assert "MIRZA" in out

    def test_render_concatenates(self, tables):
        out = framework.render_experiment("extras", tables)
        assert out.count("Tracker storage") == 1
