"""Figure 13: refresh-power overhead of MINT vs MIRZA.

Refresh power overhead is victim-refresh rows relative to demand-
refresh rows (Section II-F).  Both are *rates*, so the experiment
computes them from measured quantities directly:

- demand refresh covers every row once per tREFW
  (``rows_per_bank`` victims' worth of demand work);
- MINT mitigates one aggressor (4 victim rows) every W activations:
  ``acts_per_bank_per_tREFW / W * 4`` victim rows;
- MIRZA multiplies that by the measured RCT escape probability (the
  Table VIII measurement), since only escaping activations participate
  in mitigation at all.

The paper's numbers: MINT 16.4% / ~8% / 4.1% and MIRZA well under 1.5%
at TRHD 500 / 1K / 2K -- a 10x-125x reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.common import CgfJob
from repro.experiments.framework import Cell, Check, Claim, Context
from repro.params import MitigationCosts, SystemConfig
from repro.sim.runner import MINT_RFM_WINDOWS
from repro.sim.stats import format_table, mean

PAPER = {
    "mint": {500: 16.4, 1000: 8.0, 2000: 4.1},
    "mirza": {500: 1.5, 1000: 0.3, 2000: 0.05},
}

_THRESHOLDS = (500, 1000, 2000)


@dataclass
class Fig13Result:
    mint_overhead: Dict[int, float] = field(default_factory=dict)
    mirza_overhead: Dict[int, float] = field(default_factory=dict)


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.counting_scale()
    cells = []
    for trhd in ctx.opt("thresholds", _THRESHOLDS):
        mirza_config = MirzaConfig.paper_config(trhd)
        cells.extend(
            Cell((trhd, spec.name),
                 CgfJob.single(spec, "strided",
                               scale.scale_threshold(mirza_config.fth),
                               mirza_config.num_regions, scale))
            for spec in ctx.specs())
    return cells


def _reduce(cells: framework.Cells) -> Fig13Result:
    victims = MitigationCosts().victims_per_mitigation
    rows_per_bank = SystemConfig().geometry.rows_per_bank
    result = Fig13Result()
    for trhd in cells.ctx.opt("thresholds", _THRESHOLDS):
        mirza_config = MirzaConfig.paper_config(trhd)
        mint_vals, mirza_vals = [], []
        for spec in cells.ctx.specs():
            acts = spec.acts_per_bank_per_window
            mint_rate = acts / MINT_RFM_WINDOWS[trhd]
            mint_vals.append(
                100.0 * mint_rate * victims / rows_per_bank)
            stats = cells[(trhd, spec.name)].cgf[0]
            escape = (stats.escaped / stats.total_acts
                      if stats.total_acts else 0.0)
            mirza_rate = acts * escape / mirza_config.mint_window
            mirza_vals.append(
                100.0 * mirza_rate * victims / rows_per_bank)
        result.mint_overhead[trhd] = mean(mint_vals)
        result.mirza_overhead[trhd] = mean(mirza_vals)
    return result


def _render(result: Fig13Result) -> str:
    rows = []
    for trhd in sorted(result.mint_overhead):
        rows.append([
            trhd,
            f"{result.mint_overhead[trhd]:.2f}% "
            f"(paper {PAPER['mint'][trhd]}%)",
            f"{result.mirza_overhead[trhd]:.3f}% "
            f"(paper {PAPER['mirza'][trhd]}%)",
        ])
    return format_table(
        ["TRHD", "MINT refresh power", "MIRZA refresh power"],
        rows, title="Figure 13: refresh power overhead")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="fig13",
    title="Figure 13",
    description="Refresh power of MINT vs MIRZA",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("MINT-1000 refresh power %", PAPER["mint"][1000],
              lambda r: r.mint_overhead.get(1000, float("nan")),
              rel_tol=0.75),
        Check("MIRZA-1000 refresh power %", PAPER["mirza"][1000],
              lambda r: r.mirza_overhead.get(1000, float("nan")),
              rel_tol=1.0, abs_tol=1.0),
    ),
    claims=(
        Claim("MIRZA needs less refresh power than MINT at TRHD=500",
              lambda r: r.mirza_overhead[500] < r.mint_overhead[500]),
        Claim("MIRZA needs under a third of MINT's refresh power at "
              "TRHD=1K",
              lambda r: r.mirza_overhead[1000]
              < r.mint_overhead[1000] / 3),
        Claim("MIRZA needs under a tenth of MINT's refresh power at "
              "TRHD=2K",
              lambda r: r.mirza_overhead[2000]
              < r.mint_overhead[2000] / 10),
        Claim("MINT's refresh power falls as TRHD relaxes (500 > 2K)",
              lambda r: r.mint_overhead[500] > r.mint_overhead[2000]),
        Claim("MIRZA-1000 refresh power stays under 1.5%",
              lambda r: r.mirza_overhead[1000] < 1.5),
    ),
))
