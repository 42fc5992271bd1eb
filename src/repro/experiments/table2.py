"""Table II: TRHD tolerated by MINT and Mithril vs mitigation rate.

The MINT column is analytic (the sampling model, calibrated once
against the public MINT model).  The Mithril column is *measured*: the
feinting attack is driven against our Misra-Gries implementation in the
single-bank harness and the worst per-row unmitigated count is read off
the oracle.  The harness uses a 128-entry tracker, and the paper's
2K-entry row is reported analytically alongside.  Cost is not the
reason: Mithril finds its eviction victim through a heap index, so a
2048-entry feint takes about a second.  The reason is the ACT budget:
within the default 150k ACTs a 2048-entry feint rotates over 2304 rows
and visits each only ~65 times, so the measurement would report the
budget rather than the tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments import framework
from repro.experiments.framework import Cell, Check, Claim, Context, near
from repro.mitigations.mithril import MithrilTracker
from repro.security.analysis import (
    acts_per_ref_interval,
    mint_trh_for_mitigation_rate,
    mithril_trh_bound,
    refresh_cannibalization,
)
from repro.security.attacks import SingleBankHarness
from repro.sim.session import register_job_type
from repro.sim.stats import format_table
from repro.workloads.patterns import CompileContext, paper_attack_set

PAPER = {
    1: {"cannibalization": 68.0, "mint": 1500, "mithril": 1000},
    2: {"cannibalization": 34.0, "mint": 2900, "mithril": 1700},
    4: {"cannibalization": 17.0, "mint": 5800, "mithril": 2900},
    8: {"cannibalization": 8.5, "mint": 11600, "mithril": 5400},
}

_RATES = (1, 2, 4, 8)

_HARNESS_ENTRIES = 128
"""Entries of the Mithril tracker the feinting attack is measured on."""


@dataclass
class Table2Row:
    refs_per_mitigation: int
    cannibalization_pct: float
    mint_trhd: int
    mithril_measured: int
    mithril_bound: int


def measure_mithril_feinting(entries: int, refs_per_mitigation: int,
                             acts: int = 150_000) -> int:
    """Worst unmitigated count the feinting attack sustains."""
    tracker = MithrilTracker(entries=entries,
                             refs_per_mitigation=refs_per_mitigation)
    harness = SingleBankHarness(
        tracker, acts_per_ref=acts_per_ref_interval())
    feint = paper_attack_set(acts, tracker_entries=entries)["feinting"]
    harness.run(feint.rows(CompileContext.make()))
    return harness.max_unmitigated


@dataclass(frozen=True)
class FeintingJob:
    """One :func:`measure_mithril_feinting` run as a session job."""

    entries: int
    refs_per_mitigation: int
    acts: int = 150_000

    def label(self) -> str:
        """Span/progress name, e.g.
        ``feint:mithril-128/1-per-4-REF/150000``."""
        return (f"feint:mithril-{self.entries}/"
                f"1-per-{self.refs_per_mitigation}-REF/{self.acts}")

    def execute(self) -> int:
        """Drive the feinting attack (uncached worker-process path)."""
        return measure_mithril_feinting(self.entries,
                                        self.refs_per_mitigation,
                                        self.acts)


register_job_type(FeintingJob, lambda value: value, lambda value: value)


def _grid(ctx: Context) -> List[Cell]:
    return [Cell(rate, FeintingJob(_HARNESS_ENTRIES, rate))
            for rate in _RATES]


def _reduce(cells: framework.Cells) -> List[Table2Row]:
    rows = []
    for rate in _RATES:
        rows.append(Table2Row(
            refs_per_mitigation=rate,
            cannibalization_pct=100 * refresh_cannibalization(rate),
            mint_trhd=mint_trh_for_mitigation_rate(rate),
            mithril_measured=cells[rate],
            mithril_bound=mithril_trh_bound(2048, rate),
        ))
    return rows


def _render(rows: List[Table2Row]) -> str:
    table_rows = []
    for r in rows:
        paper = PAPER[r.refs_per_mitigation]
        table_rows.append([
            f"1 per {r.refs_per_mitigation} REF",
            f"{r.cannibalization_pct:.1f}%",
            f"{paper['cannibalization']}%",
            r.mint_trhd, paper["mint"],
            r.mithril_measured, paper["mithril"],
        ])
    return format_table(
        ["Mitigation rate", "cannibal.", "paper", "MINT TRHD",
         "paper", "Mithril TRHD (128-entry, measured)", "paper (2K)"],
        table_rows,
        title="Table II: tolerated TRHD vs mitigation rate")


def _row_of(rate: int, attr: str):
    def measured(rows: List[Table2Row]) -> float:
        for row in rows:
            if row.refs_per_mitigation == rate:
                return getattr(row, attr)
        return float("nan")
    return measured


def _mithril_grows(rows: List[Table2Row]) -> bool:
    measured = [row.mithril_measured for row in rows]
    return min(measured) > 0 and measured == sorted(measured)


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table2",
    title="Table II",
    description="Tolerated TRHD vs mitigation rate",
    paper=PAPER,
    grid=_grid,
    reduce=_reduce,
    render=_render,
    checks=(
        Check("1/4 REF cannibalization %",
              PAPER[4]["cannibalization"],
              _row_of(4, "cannibalization_pct"), rel_tol=0.25),
        Check("1/4 REF MINT TRHD", PAPER[4]["mint"],
              _row_of(4, "mint_trhd"), rel_tol=0.25),
    ),
    claims=(
        Claim("MINT's tolerated TRHD is within 5% of Table II at every "
              "rate",
              lambda rows: all(near(
                  row.mint_trhd, PAPER[row.refs_per_mitigation]["mint"],
                  rel_tol=0.05) for row in rows)),
        Claim("REF cannibalization is within 0.5 points of Table II at "
              "every rate",
              lambda rows: all(near(
                  row.cannibalization_pct,
                  PAPER[row.refs_per_mitigation]["cannibalization"],
                  abs_tol=0.5) for row in rows)),
        Claim("Mithril's feinting worst case is positive and grows with "
              "the mitigation period", _mithril_grows),
    ),
))
