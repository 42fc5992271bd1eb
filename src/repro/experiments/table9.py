"""Table IX: MINT-W / FTH sensitivity at TRHD = 1000.

The security bound trades the two knobs off: a larger MINT window
needs a lower FTH (less filtering, more escapes) but raises ALERTs
less often per escape.  The paper's sweep (W, FTH) = (4, 1820),
(8, 1660), (12, 1500), (16, 1350) shows slowdown growing with W
because the unfiltered-ACT growth dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.common import CgfJob
from repro.experiments.framework import Cell, Check, Claim, Context
from repro.sim.runner import mirza_setup
from repro.sim.session import SimJob
from repro.sim.stats import format_table, mean

PAPER_POINTS = [(4, 1820), (8, 1660), (12, 1500), (16, 1350)]
PAPER_SLOWDOWN = {4: 0.1, 8: 0.13, 12: 0.36, 16: 0.6}
PAPER_REMAINING = {4: 0.06, 8: 0.21, 12: 0.88, 16: 2.29}


@dataclass
class Table9Row:
    mint_window: int
    fth: int
    slowdown_pct: float
    remaining_acts_pct: float
    sram_bytes: float


def _points(ctx: Context) -> List[Tuple[int, int]]:
    return list(ctx.opt("points", tuple(PAPER_POINTS)))


def _config(window: int, fth: int) -> MirzaConfig:
    return MirzaConfig(trhd=1000, fth=fth, mint_window=window,
                       num_regions=128)


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    cells = []
    for window, fth in _points(ctx):
        config = _config(window, fth)
        for spec in ctx.specs():
            cells.append(Cell(
                ("sd", (window, fth), spec.name),
                SimJob(spec, mirza_setup(1000, scale, config=config),
                       scale, seed),
                slowdown=True))
            cells.append(Cell(
                ("cgf", (window, fth), spec.name),
                CgfJob.single(spec, "strided",
                              scale.scale_threshold(fth), 128, scale)))
    return cells


def _reduce(cells: framework.Cells) -> List[Table9Row]:
    rows = []
    for window, fth in _points(cells.ctx):
        specs = cells.ctx.specs()
        slowdowns = [cells[("sd", (window, fth), spec.name)][0]
                     for spec in specs]
        remaining = [cells[("cgf", (window, fth),
                            spec.name)].cgf[0].remaining_pct
                     for spec in specs]
        rows.append(Table9Row(
            mint_window=window, fth=fth,
            slowdown_pct=mean(slowdowns),
            remaining_acts_pct=mean(remaining),
            sram_bytes=_config(window, fth).storage_bytes_per_bank,
        ))
    return rows


def _render(rows: List[Table9Row]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.mint_window,
            row.fth,
            f"{row.sram_bytes:.0f}",
            f"{row.slowdown_pct:.2f}% "
            f"(paper {PAPER_SLOWDOWN[row.mint_window]}%)",
            f"{row.remaining_acts_pct:.2f}% "
            f"(paper {PAPER_REMAINING[row.mint_window]}%)",
        ])
    return format_table(
        ["MINT-W", "FTH", "SRAM/bank", "Slowdown", "Remaining ACTs"],
        table_rows,
        title="Table IX: FTH vs MINT-W sensitivity at TRHD=1K")


def _row_for(rows: List[Table9Row], window: int) -> Optional[Table9Row]:
    for row in rows:
        if row.mint_window == window:
            return row
    return None


def _slowdown_of(window: int):
    def measured(rows: List[Table9Row]) -> float:
        row = _row_for(rows, window)
        return row.slowdown_pct if row else float("nan")
    return measured


def _remaining_of(window: int):
    def measured(rows: List[Table9Row]) -> float:
        row = _row_for(rows, window)
        return row.remaining_acts_pct if row else float("nan")
    return measured


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table9",
    title="Table IX",
    description="FTH vs MINT-W sensitivity",
    paper={"slowdown": PAPER_SLOWDOWN, "remaining": PAPER_REMAINING},
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("W=12 slowdown %", PAPER_SLOWDOWN[12],
              _slowdown_of(12), rel_tol=1.0, abs_tol=2.0),
        Check("W=12 remaining ACTs %", PAPER_REMAINING[12],
              _remaining_of(12), rel_tol=1.0, abs_tol=2.0),
        Check("W=16 remaining ACTs %", PAPER_REMAINING[16],
              _remaining_of(16), rel_tol=1.0, abs_tol=3.0),
    ),
    claims=(
        Claim("a lower FTH leaves more ACTs unfiltered (W=16 > W=4)",
              lambda rows: _remaining_of(16)(rows)
              > _remaining_of(4)(rows)),
        Claim("SRAM per bank is the same at every point",
              lambda rows: len({row.sram_bytes for row in rows}) == 1),
        Claim("every point slows under 4%, well below PRAC's 6.5%",
              lambda rows: all(row.slowdown_pct < 4.0 for row in rows)),
    ),
))
