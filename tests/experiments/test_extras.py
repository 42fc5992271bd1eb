"""Tests for the extension exhibits."""

import pytest

from repro.experiments import framework
from repro.experiments.framework import Context


@pytest.fixture(scope="module")
def tables():
    return framework.run_experiment("extras", Context.make())


def _storage_bytes(table: str) -> dict:
    """Tracker -> bytes, read off the rendered storage table."""
    rows = {}
    for line in table.splitlines()[3:]:
        name, size = (cell.strip() for cell in line.split("|"))
        rows[name] = float(size.removesuffix(" B").replace(",", ""))
    return rows


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

    def test_mirza_row_equals_table7_sram_per_bank(self, tables):
        rows = framework.run_experiment("table7", Context.make())
        (row,) = [row for row in rows if row.trhd == 1000]
        assert _storage_bytes(tables["storage"])["MIRZA"] \
            == row.preset.storage_bytes_per_bank == 196

    def test_mint_row_equals_table12_mint_storage(self, tables):
        rows = framework.run_experiment("table12", Context.make())
        (row,) = [row for row in rows if row.tracker == "MINT"]
        assert _storage_bytes(tables["storage"])["MINT (+DMQ)"] \
            == row.storage_bytes == 20

    @pytest.mark.parametrize("name,paper_bytes", [
        ("PrIDE", 9), ("TRR (insecure)", 84), ("Hydra (SRAM part)", 1232),
        ("Mithril 2K", 7168), ("ProTRR 2K", 7168)])
    def test_other_rows_print_their_design_storage(self, tables, name,
                                                   paper_bytes):
        """The rows of the designs the repository does not simulate
        print their design papers' storage, priced by the closed forms
        alone."""
        assert _storage_bytes(tables["storage"])[name] == paper_bytes

    def test_render_concatenates(self, tables):
        out = framework.render_experiment("extras", tables)
        assert out.count("Tracker storage") == 1
