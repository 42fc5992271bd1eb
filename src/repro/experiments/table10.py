"""Table X: relative silicon area of MIRZA vs PRAC per subarray."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.framework import Check
from repro.security.area import AreaModel
from repro.security.mirza_model import solve_fth
from repro.sim.stats import format_table

PAPER = {
    1000: {"mirza_bits": 11, "prac_bits": 10 * 1024, "ratio": 45.0},
    500: {"mirza_bits": 20, "prac_bits": 9 * 1024, "ratio": 22.5},
    250: {"mirza_bits": 36, "prac_bits": 8 * 1024, "ratio": 11.2},
}

_THRESHOLDS = (1000, 500, 250)


@dataclass
class Table10Row:
    trhd: int
    mirza_bits_per_subarray: int
    prac_bits_per_subarray: int
    area_ratio: float


def _config_for(trhd: int) -> MirzaConfig:
    if trhd in (500, 1000, 2000):
        return MirzaConfig.paper_config(trhd)
    # TRHD=250: continue the paper's scaling (regions double, window
    # shrinks as the threshold halves).
    window = 4
    fth = solve_fth(trhd, window)
    return MirzaConfig(trhd=trhd, fth=fth, mint_window=window,
                       num_regions=512)


def _reduce(cells: framework.Cells) -> List[Table10Row]:
    model = AreaModel()
    rows = []
    for trhd in cells.ctx.opt("thresholds", _THRESHOLDS):
        config = _config_for(trhd)
        rows.append(Table10Row(
            trhd=trhd,
            mirza_bits_per_subarray=model.mirza_bits_per_subarray(
                config.num_regions, config.fth),
            prac_bits_per_subarray=model.prac_bits_per_subarray(trhd),
            area_ratio=model.prac_to_mirza_ratio(
                trhd, config.num_regions, config.fth),
        ))
    return rows


def _render(rows: List[Table10Row]) -> str:
    table_rows = []
    for row in rows:
        paper = PAPER[row.trhd]
        table_rows.append([
            row.trhd,
            f"{row.mirza_bits_per_subarray}b SRAM "
            f"(paper {paper['mirza_bits']}b)",
            f"{row.prac_bits_per_subarray // 1024}Kb DRAM "
            f"(paper {paper['prac_bits'] // 1024}Kb)",
            f"{row.area_ratio:.1f}x (paper {paper['ratio']}x)",
        ])
    return format_table(
        ["TRHD", "MIRZA per subarray", "PRAC per subarray",
         "PRAC/MIRZA area"],
        table_rows, title="Table X: relative area per subarray")


def _ratio_of(trhd: int):
    def measured(rows: List[Table10Row]) -> float:
        for row in rows:
            if row.trhd == trhd:
                return row.area_ratio
        return float("nan")
    return measured


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table10",
    title="Table X",
    description="Relative area per subarray",
    paper=PAPER,
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
    checks=(
        Check("PRAC/MIRZA area ratio at TRHD=1000",
              PAPER[1000]["ratio"], _ratio_of(1000), rel_tol=0.5),
        Check("PRAC/MIRZA area ratio at TRHD=500",
              PAPER[500]["ratio"], _ratio_of(500), rel_tol=0.5),
    ),
))
