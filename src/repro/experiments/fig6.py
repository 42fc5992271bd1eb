"""Figure 6: average ACTs per subarray per tREFW vs the worst case.

Benign workloads average 100-1500 activations per subarray per refresh
window; a worst-case single-bank pattern can deliver ~621K, all focused
on one subarray -- a 423x divergence that is the entire headroom
coarse-grained filtering exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments import framework
from repro.experiments.common import SubarrayStatsJob
from repro.experiments.framework import Cell, Check, Claim, Context, near
from repro.params import max_acts_per_bank_per_trefw
from repro.sim.stats import format_table, mean
from repro.workloads.specs import workload_by_name


@dataclass
class Fig6Result:
    per_workload: Dict[str, float]
    worst_case: int

    @property
    def average(self) -> float:
        return mean(self.per_workload.values())

    @property
    def divergence(self) -> float:
        """How far the worst case sits above the workload average."""
        return self.worst_case / self.average if self.average else 0.0


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.counting_scale()
    return [Cell(spec.name, SubarrayStatsJob(spec, scale))
            for spec in ctx.specs()]


def _reduce(cells: framework.Cells) -> Fig6Result:
    scale = cells.ctx.counting_scale()
    per_workload = {}
    for spec in cells.ctx.specs():
        measured_mean, _ = cells[spec.name]
        per_workload[spec.name] = measured_mean * scale.time_scale
    return Fig6Result(per_workload=per_workload,
                      worst_case=max_acts_per_bank_per_trefw())


def _matches_table4(result: Fig6Result) -> bool:
    """Every workload's density within 40% of its Table IV mean."""
    return all(near(value, workload_by_name(name).acts_per_subarray_mean,
                    rel_tol=0.4)
               for name, value in result.per_workload.items())


def _render(result: Fig6Result) -> str:
    rows = [[name, f"{value:.0f}",
             workload_by_name(name).acts_per_subarray_mean]
            for name, value in result.per_workload.items()]
    rows.append(["worst-case (one subarray)", result.worst_case,
                 "621K"])
    rows.append(["divergence vs avg", f"{result.divergence:.0f}x",
                 "~423x"])
    return format_table(
        ["Workload", "ACTs/subarray/tREFW (measured)", "paper"],
        rows, title="Figure 6: benign vs worst-case ACT density")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="fig6",
    title="Figure 6",
    description="Benign vs worst-case ACT density",
    paper={"worst_case": 621_000, "divergence": 423},
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("worst-case/average divergence x", 423,
              lambda r: r.divergence, rel_tol=0.9),
    ),
    claims=(
        Claim("the worst case is 621K ACTs per subarray per tREFW, "
              "within 5%",
              lambda r: near(r.worst_case, 621_000, rel_tol=0.05)),
        Claim("the worst case sits over 100x above the benign average",
              lambda r: r.divergence > 100),
        Claim("every workload's ACTs/subarray is within 40% of Table IV",
              _matches_table4),
    ),
))
