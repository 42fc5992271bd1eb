"""Table VI: effectiveness of CGF under Sequential vs Strided mapping.

The same logical activation streams are filtered through the RCT with
the two row-to-subarray mappings.  Under Sequential, workload locality
(contiguous pages) concentrates activations into a handful of
subarrays and only ~5% of ACTs are filtered; under Strided, locality
spreads over all 128 subarrays and >98% of ACTs are filtered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments import framework
from repro.experiments.common import CgfJob
from repro.experiments.framework import Cell, Check, Claim, Context
from repro.sim.stats import format_table

PAPER = {
    (1400, "sequential"): 5.16, (1400, "strided"): 98.34,
    (1500, "sequential"): 5.55, (1500, "strided"): 99.12,
    (1600, "sequential"): 5.94, (1600, "strided"): 99.62,
    (1700, "sequential"): 6.31, (1700, "strided"): 99.85,
}
"""(FTH, mapping) -> % of ACTs filtered."""

_FTHS = (1400, 1500, 1600, 1700)
_NUM_REGIONS = 128


@dataclass
class Table6Result:
    filtered_pct: Dict[Tuple[int, str], float] = field(
        default_factory=dict)
    """(full-scale FTH, mapping) -> average % of ACTs filtered."""


def _points(ctx: Context) -> List[Tuple[int, str]]:
    return [(fth, mapping) for fth in ctx.opt("fths", _FTHS)
            for mapping in ("sequential", "strided")]


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.counting_scale()
    num_regions = ctx.opt("num_regions", _NUM_REGIONS)
    return [Cell(((fth, mapping), spec.name),
                 CgfJob.single(spec, mapping, scale.scale_threshold(fth),
                               num_regions, scale))
            for fth, mapping in _points(ctx)
            for spec in ctx.specs()]


def _reduce(cells: framework.Cells) -> Table6Result:
    result = Table6Result()
    for point in _points(cells.ctx):
        filtered = total = 0
        for spec in cells.ctx.specs():
            stats = cells[(point, spec.name)].cgf[0]
            filtered += stats.filtered
            total += stats.total_acts
        # ACT-weighted aggregate: the paper's percentages are over
        # the pooled activation stream, so heavy workloads dominate.
        result.filtered_pct[point] = \
            100.0 * filtered / total if total else 0.0
    return result


def _render(result: Table6Result) -> str:
    fths = sorted({f for f, _ in result.filtered_pct})
    rows = []
    for fth in fths:
        seq = result.filtered_pct[(fth, "sequential")]
        str_ = result.filtered_pct[(fth, "strided")]
        rows.append([
            fth,
            f"{seq:.2f}% ({PAPER[(fth, 'sequential')]}%)",
            f"{100 - seq:.2f}%",
            f"{str_:.2f}% ({PAPER[(fth, 'strided')]}%)",
            f"{100 - str_:.2f}%",
        ])
    return format_table(
        ["FTH", "Sequential filtered (paper)", "Seq remaining",
         "Strided filtered (paper)", "Strided remaining"],
        rows, title="Table VI: CGF effectiveness by R2SA mapping")


def _every_fth(result: Table6Result, holds) -> bool:
    """``holds(strided %, sequential %)`` at every FTH of the sweep."""
    return all(holds(result.filtered_pct[(fth, "strided")],
                     result.filtered_pct[(fth, "sequential")])
               for fth, mapping in result.filtered_pct
               if mapping == "strided")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table6",
    title="Table VI",
    description="CGF effectiveness by mapping",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("FTH 1500 strided filtered %",
              PAPER[(1500, "strided")],
              lambda r: r.filtered_pct.get((1500, "strided"),
                                           float("nan")),
              rel_tol=0.15),
        Check("FTH 1500 sequential filtered %",
              PAPER[(1500, "sequential")],
              lambda r: r.filtered_pct.get((1500, "sequential"),
                                           float("nan")),
              rel_tol=1.0, abs_tol=15.0),
    ),
    claims=(
        Claim("strided mapping filters over 90% at every FTH",
              lambda r: _every_fth(r, lambda strided, _: strided > 90.0)),
        Claim("sequential mapping filters under 40% at every FTH",
              lambda r: _every_fth(r, lambda _, seq: seq < 40.0)),
        Claim("strided beats sequential by over 50 points at every FTH",
              lambda r: _every_fth(
                  r, lambda strided, seq: strided > seq + 50.0)),
        Claim("strided filtering strengthens with FTH (1700 >= 1400)",
              lambda r: r.filtered_pct[(1700, "strided")]
              >= r.filtered_pct[(1400, "strided")]),
    ),
))
