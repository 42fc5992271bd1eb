"""Figure 11: (a) slowdown of MIRZA vs PRAC; (b) ALERT rate.

Paper: MIRZA slows workloads by 1.43% / 0.36% / 0.05% on average at
TRHD 500 / 1K / 2K while PRAC+ABO sits at 6.5% everywhere.  At TRHD=1K
MIRZA raises 2.16 ALERTs per 100 tREFI per subchannel; PRAC raises
almost none (its slowdown is purely the inflated timings).
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
from repro.sim.runner import mirza_setup, prac_setup
from repro.sim.session import SimJob
from repro.sim.stats import mean

PAPER = {
    "mirza_slowdown": {500: 1.43, 1000: 0.36, 2000: 0.05},
    "prac_slowdown": 6.5,
    "mirza_alerts_per_100_trefi_1k": 2.16,
}

_THRESHOLDS = (500, 1000, 2000)


@dataclass
class Fig11Result:
    mirza_slowdown: Dict[int, float] = field(default_factory=dict)
    mirza_alert_rate: Dict[int, float] = field(default_factory=dict)
    prac_slowdown: float = 0.0
    prac_alert_rate: float = 0.0
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
                (f"mirza-{trhd}", spec.name),
                SimJob(spec, mirza_setup(trhd, scale), scale, seed),
                slowdown=True))
    return cells


def _reduce(cells: framework.Cells) -> Fig11Result:
    thresholds = cells.ctx.opt("thresholds", _THRESHOLDS)
    result = Fig11Result()
    prac_sd, prac_alerts = [], []
    for spec in cells.ctx.specs():
        per = {}
        sd, protected = cells[("prac", spec.name)]
        per["prac"] = sd
        prac_sd.append(sd)
        prac_alerts.append(protected.alerts_per_100_trefi())
        for trhd in thresholds:
            sd, protected = cells[(f"mirza-{trhd}", spec.name)]
            per[f"mirza-{trhd}"] = sd
            per[f"alerts-{trhd}"] = protected.alerts_per_100_trefi()
        result.per_workload[spec.name] = per
    for trhd in thresholds:
        result.mirza_slowdown[trhd] = mean(
            p[f"mirza-{trhd}"] for p in result.per_workload.values())
        result.mirza_alert_rate[trhd] = mean(
            p[f"alerts-{trhd}"] for p in result.per_workload.values())
    result.prac_slowdown = mean(prac_sd)
    result.prac_alert_rate = mean(prac_alerts)
    return result


def _rows(result: Fig11Result) -> List[List[str]]:
    rows = []
    for trhd in sorted(result.mirza_slowdown):
        rows.append([
            f"MIRZA-{trhd}",
            f"{result.mirza_slowdown[trhd]:.2f}%",
            f"{PAPER['mirza_slowdown'][trhd]}%",
            f"{result.mirza_alert_rate[trhd]:.2f}",
            f"{PAPER['mirza_alerts_per_100_trefi_1k']}"
            if trhd == 1000 else "-",
        ])
    rows.append(["PRAC+ABO", f"{result.prac_slowdown:.2f}%",
                 f"{PAPER['prac_slowdown']}%",
                 f"{result.prac_alert_rate:.2f}", "~0"])
    return rows


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="fig11",
    title="Figure 11",
    description="MIRZA vs PRAC slowdown and ALERTs",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=TableSpec(
        title="Figure 11: MIRZA vs PRAC performance and ALERTs",
        columns=("Config", "Slowdown", "paper", "ALERTs/100 tREFI",
                 "paper"),
        rows=_rows),
    checks=(
        Check("PRAC+ABO slowdown %", PAPER["prac_slowdown"],
              lambda r: r.prac_slowdown, rel_tol=0.75),
        Check("MIRZA-1000 slowdown %",
              PAPER["mirza_slowdown"][1000],
              lambda r: r.mirza_slowdown.get(1000, float("nan")),
              rel_tol=1.0, abs_tol=2.0),
        Check("MIRZA-1000 ALERTs/100 tREFI",
              PAPER["mirza_alerts_per_100_trefi_1k"],
              lambda r: r.mirza_alert_rate.get(1000, float("nan")),
              rel_tol=1.0, abs_tol=2.0),
    ),
    claims=(
        Claim("MIRZA slows less than PRAC+ABO at every TRHD",
              lambda r: all(sd < r.prac_slowdown
                            for sd in r.mirza_slowdown.values())),
        Claim("MIRZA slows less as TRHD relaxes (500 >= 2K)",
              lambda r: r.mirza_slowdown[500] >= r.mirza_slowdown[2000]),
        Claim("MIRZA-1000 stays near-free (under 2.5%)",
              lambda r: r.mirza_slowdown[1000] < 2.5),
        Claim("PRAC+ABO raises almost no ALERTs (< 0.01 per 100 tREFI)",
              lambda r: r.prac_alert_rate < 0.01),
        Claim("MIRZA ALERTs less as TRHD relaxes (500 >= 2K)",
              lambda r: r.mirza_alert_rate[500]
              >= r.mirza_alert_rate[2000]),
        Claim("MIRZA-1000 raises under 25 ALERTs per 100 tREFI",
              lambda r: r.mirza_alert_rate[1000] < 25.0),
    ),
))
