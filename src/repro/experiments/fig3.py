"""Figure 3: slowdown and refresh power of MINT+RFM vs PRAC+ABO.

The paper reports, averaged over the 24 workloads:

- MINT+RFM slowdown 11.1% / 5.81% / 2.9% at TRHD 500 / 1K / 2K;
- MINT+RFM refresh-power overhead 16.4% / ~8% / 4.1%;
- PRAC+ABO slowdown 6.5% at every threshold (timing inflation only)
  with 0% refresh-power overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments import framework
from repro.experiments.framework import (
    Cell,
    Check,
    Claim,
    Context,
    TableSpec,
)
from repro.sim.runner import mint_rfm_setup, prac_setup
from repro.sim.session import SimJob
from repro.sim.stats import mean

PAPER = {
    "mint_slowdown": {500: 11.1, 1000: 5.81, 2000: 3.08},
    "mint_refresh_power": {500: 16.4, 1000: 8.0, 2000: 4.1},
    "prac_slowdown": 6.5,
}

_THRESHOLDS = (500, 1000, 2000)


@dataclass
class Fig3Result:
    mint_slowdown: Dict[int, float] = field(default_factory=dict)
    mint_refresh_power: Dict[int, float] = field(default_factory=dict)
    prac_slowdown: float = 0.0
    per_workload: Dict[str, Dict[str, float]] = field(
        default_factory=dict)


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    cells = []
    for spec in ctx.specs():
        cells.append(Cell(("prac", spec.name),
                          SimJob(spec, prac_setup(1000), scale, seed),
                          slowdown=True))
        for trhd in ctx.opt("thresholds", _THRESHOLDS):
            cells.append(Cell(
                (f"mint-{trhd}", spec.name),
                SimJob(spec, mint_rfm_setup(trhd), scale, seed),
                slowdown=True))
    return cells


def _reduce(cells: framework.Cells) -> Fig3Result:
    thresholds = cells.ctx.opt("thresholds", _THRESHOLDS)
    time_scale = cells.ctx.timed_scale().time_scale
    result = Fig3Result()
    prac_slowdowns = []
    for spec in cells.ctx.specs():
        per = {}
        sd, _ = cells[("prac", spec.name)]
        per["prac"] = sd
        prac_slowdowns.append(sd)
        for trhd in thresholds:
            sd, protected = cells[(f"mint-{trhd}", spec.name)]
            per[f"mint-{trhd}"] = sd
            # Scale the victim/demand ratio back to the full tREFW:
            # the demand sweep covers all rows once per window at any
            # time scale (see Figure 13's module docstring).
            per[f"mint-rp-{trhd}"] = \
                protected.refresh_power_overhead_pct() * time_scale
        result.per_workload[spec.name] = per
    for trhd in thresholds:
        result.mint_slowdown[trhd] = mean(
            p[f"mint-{trhd}"] for p in result.per_workload.values())
        result.mint_refresh_power[trhd] = mean(
            p[f"mint-rp-{trhd}"] for p in result.per_workload.values())
    result.prac_slowdown = mean(prac_slowdowns)
    return result


def _rows(result: Fig3Result) -> List[List[str]]:
    rows = []
    for trhd in sorted(result.mint_slowdown):
        rows.append([
            trhd,
            f"{result.mint_slowdown[trhd]:.2f}%",
            f"{PAPER['mint_slowdown'][trhd]}%",
            f"{result.mint_refresh_power[trhd]:.2f}%",
            f"{PAPER['mint_refresh_power'][trhd]}%",
        ])
    rows.append(["PRAC (any)", f"{result.prac_slowdown:.2f}%",
                 f"{PAPER['prac_slowdown']}%", "0%", "0%"])
    return rows


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="fig3",
    title="Figure 3",
    description="MINT+RFM vs PRAC overheads",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=TableSpec(
        title="Figure 3: proactive mitigation overheads",
        columns=("TRHD", "MINT+RFM slowdown", "paper",
                 "MINT+RFM refresh power", "paper"),
        rows=_rows),
    checks=(
        Check("PRAC+ABO slowdown %", PAPER["prac_slowdown"],
              lambda r: r.prac_slowdown, rel_tol=0.75),
        Check("MINT+RFM-1000 slowdown %",
              PAPER["mint_slowdown"][1000],
              lambda r: r.mint_slowdown.get(1000, float("nan")),
              rel_tol=0.75),
        Check("MINT+RFM-1000 refresh power %",
              PAPER["mint_refresh_power"][1000],
              lambda r: r.mint_refresh_power.get(1000, float("nan")),
              rel_tol=0.75),
    ),
    claims=(
        Claim("MINT+RFM slows less as TRHD relaxes (500 > 1K > 2K)",
              lambda r: r.mint_slowdown[500] > r.mint_slowdown[1000]
              > r.mint_slowdown[2000]),
        Claim("MINT+RFM refresh power falls as TRHD relaxes (500 > 2K)",
              lambda r: r.mint_refresh_power[500]
              > r.mint_refresh_power[2000]),
        Claim("PRAC+ABO pays a timing tax of over 1%",
              lambda r: r.prac_slowdown > 1.0),
    ),
))
