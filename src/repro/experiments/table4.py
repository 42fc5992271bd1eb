"""Table IV: workload characteristics, paper vs measured.

The generator is *calibrated* to these statistics, so this experiment
is the closed-loop check: run the unprotected baseline and measure
L3-MPKI (from retired instructions and requests), ACT-PKI, bus
utilisation, and the per-subarray activation mean/std under strided
row-to-subarray mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments import framework
from repro.experiments.common import SubarrayStatsJob
from repro.experiments.framework import Cell, Claim, Context, near
from repro.sim.runner import baseline_setup
from repro.sim.session import SimJob
from repro.sim.stats import format_table
from repro.workloads.specs import workload_by_name


@dataclass
class WorkloadMeasurement:
    name: str
    mpki: float
    act_pki: float
    bus_util_pct: float
    acts_per_subarray_mean: float
    acts_per_subarray_std: float


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    cells = []
    for spec in ctx.specs():
        cells.append(Cell(("base", spec.name),
                          SimJob(spec, baseline_setup(), scale, seed)))
        cells.append(Cell(("sa", spec.name),
                          SubarrayStatsJob(spec, scale, seed=seed)))
    return cells


def _reduce(cells: framework.Cells) -> Dict[str, WorkloadMeasurement]:
    scale = cells.ctx.timed_scale()
    out = {}
    for spec in cells.ctx.specs():
        result = cells[("base", spec.name)]
        mean, std = cells[("sa", spec.name)]
        instructions = sum(result.instructions)
        kilo = instructions / 1000.0 if instructions else 1.0
        # Scale per-subarray stats back up to the full 32 ms window for
        # a like-for-like comparison with the paper's numbers.
        s = scale.time_scale
        out[spec.name] = WorkloadMeasurement(
            name=spec.name,
            mpki=result.total_requests / kilo,
            act_pki=result.total_activations / kilo,
            bus_util_pct=100.0 * result.bus_utilization,
            acts_per_subarray_mean=mean * s,
            acts_per_subarray_std=std * s,
        )
    return out


def _densities_match(measurements: Dict[str, WorkloadMeasurement]
                     ) -> bool:
    return all(near(m.acts_per_subarray_mean,
                    workload_by_name(name).acts_per_subarray_mean,
                    rel_tol=0.4)
               for name, m in measurements.items())


def _ranking_matches(measurements: Dict[str, WorkloadMeasurement]
                     ) -> bool:
    def paper(name: str) -> float:
        return workload_by_name(name).acts_per_subarray_mean
    measured = sorted(measurements,
                      key=lambda n: measurements[n].acts_per_subarray_mean)
    return measured == sorted(measurements, key=paper)


def _render(measurements: Dict[str, WorkloadMeasurement]) -> str:
    rows = []
    for name, m in measurements.items():
        spec = workload_by_name(name)
        rows.append([
            name,
            f"{m.mpki:.1f}/{spec.l3_mpki}",
            f"{m.act_pki:.1f}/{spec.act_pki}",
            f"{m.bus_util_pct:.0f}/{spec.bus_util_pct}",
            f"{m.acts_per_subarray_mean:.0f}/"
            f"{spec.acts_per_subarray_mean}",
            f"{m.acts_per_subarray_std:.0f}/"
            f"{spec.acts_per_subarray_std}",
        ])
    return format_table(
        ["Workload", "MPKI (meas/paper)", "ACT-PKI", "Bus util %",
         "ACT/subarray mean", "ACT/subarray std"],
        rows, title="Table IV: workload characteristics")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table4",
    title="Table IV",
    description="Workload characteristics",
    grid=_grid,
    reduce=_reduce,
    render=_render,
    claims=(
        Claim("every workload's ACTs/subarray mean is within 40% of "
              "Table IV", _densities_match),
        Claim("the workloads rank by ACT intensity as in Table IV",
              _ranking_matches),
    ),
))
