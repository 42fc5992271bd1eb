"""Table V: Naive MIRZA slowdown vs MIRZA-Q size.

The paper sweeps MINT-W in {24, 48, 96} (TRHD 500/1K/2K) and queue
sizes {1, 2, 4, 8}; buffering across banks makes each channel-wide
ALERT serve many banks, collapsing the slowdown from >60% (1 entry) to
a few percent (4 entries) -- but even the best naive design stays in
RFM territory, which motivates filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments import framework
from repro.experiments.framework import Cell, Check, Claim, Context
from repro.sim.runner import naive_mirza_setup
from repro.sim.session import SimJob
from repro.sim.stats import format_table, mean

PAPER = {
    (24, 1): 151.83, (24, 2): 14.21, (24, 4): 10.95, (24, 8): 10.49,
    (48, 1): 102.18, (48, 2): 7.02, (48, 4): 5.81, (48, 8): 5.62,
    (96, 1): 64.07, (96, 2): 3.52, (96, 4): 3.08, (96, 8): 3.01,
}

_WINDOWS = (24, 48, 96)
_QUEUE_SIZES = (1, 2, 4, 8)


@dataclass
class Table5Result:
    slowdown: Dict[Tuple[int, int], float] = field(default_factory=dict)
    """(MINT-W, queue entries) -> average slowdown %"""


def _points(ctx: Context) -> List[Tuple[int, int]]:
    return [(window, entries)
            for window in ctx.opt("windows", _WINDOWS)
            for entries in ctx.opt("queue_sizes", _QUEUE_SIZES)]


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    return [Cell(((window, entries), spec.name),
                 SimJob(spec,
                        naive_mirza_setup(window, queue_entries=entries),
                        scale, seed),
                 slowdown=True)
            for window, entries in _points(ctx)
            for spec in ctx.specs()]


def _reduce(cells: framework.Cells) -> Table5Result:
    result = Table5Result()
    for point in _points(cells.ctx):
        result.slowdown[point] = mean(
            cells[(point, spec.name)][0]
            for spec in cells.ctx.specs())
    return result


def _render(result: Table5Result) -> str:
    windows = sorted({w for w, _ in result.slowdown})
    queues = sorted({q for _, q in result.slowdown})
    rows = []
    for window in windows:
        row = [f"MINT-W {window}"]
        for q in queues:
            measured = result.slowdown[(window, q)]
            paper = PAPER.get((window, q), "-")
            row.append(f"{measured:.2f}% ({paper}%)")
        rows.append(row)
    return format_table(
        ["Window"] + [f"Q={q} (paper)" for q in queues], rows,
        title="Table V: Naive MIRZA slowdown vs MIRZA-Q size")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table5",
    title="Table V",
    description="Naive MIRZA slowdown vs queue size",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("MINT-W 48, Q=1 slowdown %", PAPER[(48, 1)],
              lambda r: r.slowdown.get((48, 1), float("nan")),
              rel_tol=0.9),
        Check("MINT-W 48, Q=4 slowdown %", PAPER[(48, 4)],
              lambda r: r.slowdown.get((48, 4), float("nan")),
              rel_tol=1.0, abs_tol=3.0),
    ),
    claims=(
        Claim("a 1-entry MIRZA-Q slows more than 4 entries at every "
              "MINT-W",
              lambda r: all(r.slowdown[(w, 1)] > r.slowdown[(w, 4)]
                            for w, q in r.slowdown if q == 1)),
        Claim("wider MINT windows slow less (W=24 >= W=96 at Q=4)",
              lambda r: r.slowdown[(24, 4)] >= r.slowdown[(96, 4)]),
        Claim("even the best naive design stays RFM-like (W=24, Q=4 "
              "over 0.5%)",
              lambda r: r.slowdown[(24, 4)] > 0.5),
    ),
))
