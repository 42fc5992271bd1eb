"""Table VIII: mitigation overhead of MINT vs MIRZA.

MIRZA's mitigation rate is (RCT escape probability) x (1/MINT-W);
MINT's is 1/W at the proactive window for the same threshold.  The
escape probability is measured on the benign workloads through the
activation-level CGF path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.common import CgfJob
from repro.experiments.framework import Cell, Check, Claim, Context
from repro.sim.runner import MINT_RFM_WINDOWS
from repro.sim.stats import format_table

PAPER = {
    2000: {"mint": 1 / 96, "escape": 1 / 751, "mirza": 1 / 12016,
           "ratio": 125},
    1000: {"mint": 1 / 48, "escape": 1 / 114, "mirza": 1 / 1368,
           "ratio": 28.5},
    500: {"mint": 1 / 24, "escape": 1 / 30, "mirza": 1 / 240,
          "ratio": 10},
}

_THRESHOLDS = (2000, 1000, 500)


@dataclass
class Table8Row:
    trhd: int
    mint_rate: float
    escape_probability: float
    mirza_rate: float

    @property
    def reduction(self) -> float:
        """How many times fewer mitigations MIRZA performs."""
        return self.mint_rate / self.mirza_rate if self.mirza_rate \
            else float("inf")


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.counting_scale()
    cells = []
    for trhd in ctx.opt("thresholds", _THRESHOLDS):
        config = MirzaConfig.paper_config(trhd)
        cells.extend(
            Cell((trhd, spec.name),
                 CgfJob.single(spec, "strided",
                               scale.scale_threshold(config.fth),
                               config.num_regions, scale))
            for spec in ctx.specs())
    return cells


def _reduce(cells: framework.Cells) -> List[Table8Row]:
    rows = []
    for trhd in cells.ctx.opt("thresholds", _THRESHOLDS):
        config = MirzaConfig.paper_config(trhd)
        escaped = total = 0
        for spec in cells.ctx.specs():
            stats = cells[(trhd, spec.name)].cgf[0]
            escaped += stats.escaped
            total += stats.total_acts
        # ACT-weighted pooled escape probability, as in the paper.
        escape = escaped / total if total else 0.0
        rows.append(Table8Row(
            trhd=trhd,
            mint_rate=1.0 / MINT_RFM_WINDOWS[trhd],
            escape_probability=escape,
            mirza_rate=escape / config.mint_window,
        ))
    return rows


def _render(rows: List[Table8Row]) -> str:
    table_rows = []
    for row in rows:
        paper = PAPER[row.trhd]
        esc = (f"1/{1 / row.escape_probability:.0f}"
               if row.escape_probability else "0")
        rate = (f"1/{1 / row.mirza_rate:.0f}" if row.mirza_rate else "0")
        table_rows.append([
            row.trhd,
            f"1/{1 / row.mint_rate:.0f}",
            f"{esc} (paper 1/{1 / paper['escape']:.0f})",
            f"{rate} (paper 1/{1 / paper['mirza']:.0f})",
            f"{row.reduction:.0f}x (paper {paper['ratio']}x)",
        ])
    return format_table(
        ["TRHD", "MINT rate", "escape prob", "MIRZA rate",
         "reduction"],
        table_rows, title="Table VIII: mitigation overhead")


def _reduction_of(trhd: int):
    def measured(rows: List[Table8Row]) -> float:
        for row in rows:
            if row.trhd == trhd:
                return row.reduction
        return float("nan")
    return measured


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table8",
    title="Table VIII",
    description="Mitigation overhead of MINT vs MIRZA",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("TRHD 1000 mitigation reduction x",
              PAPER[1000]["ratio"], _reduction_of(1000), rel_tol=0.9),
        Check("TRHD 500 mitigation reduction x",
              PAPER[500]["ratio"], _reduction_of(500), rel_tol=0.9),
    ),
    claims=(
        Claim("MIRZA needs over 1.5x fewer mitigations than MINT at "
              "TRHD=500", lambda rows: _reduction_of(500)(rows) > 1.5),
        Claim("MIRZA needs over 8x fewer mitigations than MINT at "
              "TRHD=1K", lambda rows: _reduction_of(1000)(rows) > 8),
        Claim("MIRZA needs over 25x fewer mitigations than MINT at "
              "TRHD=2K", lambda rows: _reduction_of(2000)(rows) > 25),
        Claim("the saving over MINT grows as TRHD relaxes "
              "(2K > 1K > 500)",
              lambda rows: _reduction_of(2000)(rows)
              > _reduction_of(1000)(rows) > _reduction_of(500)(rows)),
        Claim("under 5% of ACTs escape the filter at TRHD=1K",
              lambda rows: all(row.escape_probability < 0.05
                               for row in rows if row.trhd == 1000)),
    ),
))
