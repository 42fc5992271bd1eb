"""Table XI / Figure 12: the performance (DoS) attack on MIRZA.

Section IX-A's analytic model: a benign application striping reads
over 16 banks sustains one ACT per tBURST (3 ns).  An attacker primes
one RCT region past FTH with a circular K-row pattern, after which
every MINT window of W escaped ACTs produces one queued selection and
one ALERT.  Per ALERT cycle the attacker lands 3 ACTs in the prologue
and W-3 outside, so the benign application gets

    usable = (prologue - tRC) + (W - 3) * tRC   of every
    cycle  = alert_latency  + (W - 3) * tRC.

The paper reports relative throughput 63.4% / 55.9% / 44.5% (slowdown
1.6x / 1.8x / 2.25x) for MINT-W 16 / 12 / 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments import framework
from repro.experiments.framework import Check, Claim, near
from repro.params import AboTimings, DramTimings
from repro.sim.stats import format_table

PAPER = {16: (63.4, 1.6), 12: (55.9, 1.8), 8: (44.5, 2.25)}

_WINDOWS = (16, 12, 8)


@dataclass
class Table11Row:
    mint_window: int
    relative_throughput_pct: float

    @property
    def slowdown_factor(self) -> float:
        return 100.0 / self.relative_throughput_pct


def attack_relative_throughput(mint_window: int,
                               timings: DramTimings = DramTimings(),
                               abo: AboTimings = AboTimings()) -> float:
    """Benign ACT throughput under attack, relative to unattacked."""
    if mint_window < abo.acts_during_prologue + abo.epilogue_acts:
        raise ValueError("MINT window below the ABO protocol minimum")
    outside_acts = mint_window - abo.acts_during_prologue
    outside_time = outside_acts * timings.tRC
    usable = (abo.prologue - timings.tRC) + outside_time
    cycle = abo.latency + outside_time
    return 100.0 * usable / cycle


def _reduce(cells: framework.Cells) -> List[Table11Row]:
    return [Table11Row(w, attack_relative_throughput(w))
            for w in cells.ctx.opt("windows", _WINDOWS)]


def _render(rows: List[Table11Row]) -> str:
    table_rows = []
    for row in rows:
        paper_tp, paper_sd = PAPER[row.mint_window]
        table_rows.append([
            row.mint_window,
            f"{row.relative_throughput_pct:.1f}% (paper {paper_tp}%)",
            f"{row.slowdown_factor:.2f}x (paper {paper_sd}x)",
        ])
    return format_table(
        ["MINT-W", "ACT throughput", "Slowdown"],
        table_rows, title="Table XI: performance attack on MIRZA")


def _throughput_of(window: int):
    def measured(rows: List[Table11Row]) -> float:
        for row in rows:
            if row.mint_window == window:
                return row.relative_throughput_pct
        return float("nan")
    return measured


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table11",
    title="Table XI",
    description="Performance attack",
    paper=PAPER,
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
    checks=(
        Check("W=12 relative throughput %", PAPER[12][0],
              _throughput_of(12), rel_tol=0.25),
        Check("W=8 relative throughput %", PAPER[8][0],
              _throughput_of(8), rel_tol=0.25),
    ),
    claims=(
        Claim("relative throughput is within 10% of Table XI at every "
              "MINT-W",
              lambda rows: all(near(row.relative_throughput_pct,
                                    PAPER[row.mint_window][0],
                                    rel_tol=0.1) for row in rows)),
        Claim("attack slowdown is within 10% of Table XI at every MINT-W",
              lambda rows: all(near(row.slowdown_factor,
                                    PAPER[row.mint_window][1],
                                    rel_tol=0.1) for row in rows)),
        Claim("narrower windows suffer more under attack (W=8 > 12 > 16)",
              lambda rows: _throughput_of(8)(rows)
              < _throughput_of(12)(rows) < _throughput_of(16)(rows)),
        Claim("every window stays under 3x, like a contention attack",
              lambda rows: all(row.slowdown_factor < 3.0
                               for row in rows)),
    ),
))
