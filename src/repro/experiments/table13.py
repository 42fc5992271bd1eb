"""Table XIII: average vs worst-case slowdown for PRAC, MINT, MIRZA.

Average slowdowns come from the benign-workload simulations (Figures 3
and 11); worst-case (performance-attack) slowdowns come from the
Section IX analytic throughput model for MIRZA and the paper's
reported factors for PRAC/MINT (whose attack surface is an MC-level
bandwidth question, not a tracker question).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.framework import Check, Claim
from repro.experiments.table11 import attack_relative_throughput
from repro.sim.stats import format_table

PAPER = {
    (500, "PRAC+ABO"): (1.2, 6.5), (500, "MINT+RFM"): (1.4, 10.95),
    (500, "MIRZA"): (2.25, 1.43),
    (1000, "PRAC+ABO"): (1.1, 6.5), (1000, "MINT+RFM"): (1.2, 5.81),
    (1000, "MIRZA"): (1.8, 0.36),
    (2000, "PRAC+ABO"): (1.05, 6.5), (2000, "MINT+RFM"): (1.1, 3.08),
    (2000, "MIRZA"): (1.6, 0.05),
}
"""(TRHD, tracker) -> (perf-attack slowdown x, average slowdown %)."""


@dataclass
class Table13Row:
    trhd: int
    tracker: str
    attack_slowdown_x: float
    average_slowdown_pct: float


def _reduce(cells: framework.Cells) -> List[Table13Row]:
    benign_rfm = cells.dep("fig3")
    benign_mirza = cells.dep("fig11")
    rows = []
    for trhd in (500, 1000, 2000):
        window = MirzaConfig.paper_config(trhd).mint_window
        attack_x = 100.0 / attack_relative_throughput(window)
        rows.extend([
            Table13Row(trhd, "PRAC+ABO",
                       PAPER[(trhd, "PRAC+ABO")][0],
                       benign_mirza.prac_slowdown),
            Table13Row(trhd, "MINT+RFM",
                       PAPER[(trhd, "MINT+RFM")][0],
                       benign_rfm.mint_slowdown[trhd]),
            Table13Row(trhd, "MIRZA", attack_x,
                       benign_mirza.mirza_slowdown[trhd]),
        ])
    return rows


def _render(rows: List[Table13Row]) -> str:
    table_rows = []
    for row in rows:
        paper_attack, paper_avg = PAPER[(row.trhd, row.tracker)]
        table_rows.append([
            row.trhd, row.tracker,
            f"{row.attack_slowdown_x:.2f}x (paper {paper_attack}x)",
            f"{row.average_slowdown_pct:.2f}% (paper {paper_avg}%)",
        ])
    return format_table(
        ["TRHD", "Tracker", "Perf-attack slowdown",
         "Average slowdown"],
        table_rows,
        title="Table XIII: average vs worst-case slowdown")


def _attack_of(trhd: int, tracker: str):
    def measured(rows: List[Table13Row]) -> float:
        for row in rows:
            if row.trhd == trhd and row.tracker == tracker:
                return row.attack_slowdown_x
        return float("nan")
    return measured


def _versus(rows: List[Table13Row], tracker: str
            ) -> List[Tuple[Table13Row, Table13Row]]:
    """(MIRZA row, ``tracker`` row) pairs, one per TRHD."""
    by_key = {(row.trhd, row.tracker): row for row in rows}
    return [(row, by_key[(row.trhd, tracker)])
            for row in rows if row.tracker == "MIRZA"]


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table13",
    title="Table XIII",
    description="Average vs worst-case slowdown",
    paper=PAPER,
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
    needs=("fig3", "fig11"),
    checks=(
        Check("MIRZA-1000 perf-attack slowdown x",
              PAPER[(1000, "MIRZA")][0],
              _attack_of(1000, "MIRZA"), rel_tol=0.5),
        Check("MIRZA-500 perf-attack slowdown x",
              PAPER[(500, "MIRZA")][0],
              _attack_of(500, "MIRZA"), rel_tol=0.5),
    ),
    claims=(
        Claim("MIRZA slows less than PRAC+ABO on average at every TRHD",
              lambda rows: all(
                  mirza.average_slowdown_pct < other.average_slowdown_pct
                  for mirza, other in _versus(rows, "PRAC+ABO"))),
        Claim("MIRZA slows less than MINT+RFM on average at every TRHD",
              lambda rows: all(
                  mirza.average_slowdown_pct < other.average_slowdown_pct
                  for mirza, other in _versus(rows, "MINT+RFM"))),
        Claim("MIRZA pays with a worse attack slowdown than PRAC+ABO",
              lambda rows: all(
                  mirza.attack_slowdown_x > other.attack_slowdown_x
                  for mirza, other in _versus(rows, "PRAC+ABO"))),
        Claim("MIRZA's attack slowdown stays under 3x at every TRHD",
              lambda rows: all(row.attack_slowdown_x < 3.0
                               for row in rows if row.tracker == "MIRZA")),
    ),
))
