"""Extension exhibit: seeded attack-parameter fuzz sweep.

The adversarial counterpart of the paper exhibits: instead of running
the fixed attack set, sample pattern shapes from the declarative DSL
(:mod:`repro.workloads.patterns`) and sweep them against each
mitigation, ranking cells by the oracle's max per-row unmitigated ACT
count.  The declared check asserts the open-ended search earns its
keep -- at least one fuzzed pattern must strictly beat every paper-set
pattern against the insecure TRR reference.

Knobs (``Context`` options): ``fuzz_mitigations``, ``fuzz_budget``,
``fuzz_acts`` (default: a full refresh window of ACTs divided by the
time scale, floored at 12K so capacity-edge behaviour stays visible
at smoke scales).
"""

from __future__ import annotations

from typing import List

from repro.experiments import framework
from repro.experiments.framework import Cell, Context
from repro.security.fuzz import (
    FuzzReport,
    FuzzSpec,
    default_acts,
    fuzz_jobs,
)

MITIGATIONS = ("trr", "prac-1000", "mirza-1000")
"""Default mitigation axis: the broken DDR4 reference next to the
paper's secure configurations."""

BUDGET = 12
"""Default fuzzed patterns per sweep."""

DOMINANCE_TARGET = "trr"
"""The mitigation the fuzzer is expected to out-attack."""


def _spec(ctx: Context) -> FuzzSpec:
    acts = ctx.opt("fuzz_acts")
    if acts is None:
        acts = default_acts(ctx.timed_scale().time_scale)
    return FuzzSpec(
        mitigations=tuple(ctx.opt("fuzz_mitigations", MITIGATIONS)),
        budget=ctx.opt("fuzz_budget", BUDGET),
        acts=acts,
        seed=ctx.run_seed())


def _grid(ctx: Context) -> List[Cell]:
    spec = _spec(ctx)
    return [Cell((job.mitigation, origin, index), job)
            for index, (origin, job) in enumerate(fuzz_jobs(spec))]


def _reduce(cells: framework.Cells) -> FuzzReport:
    from repro.security.fuzz import FuzzEntry
    spec = _spec(cells.ctx)
    entries = [FuzzEntry(origin=key[1], outcome=cells[key])
               for key in cells]
    return FuzzReport(spec=spec, entries=entries)


def _rows(report: FuzzReport) -> List[List[str]]:
    rows = []
    for mitigation in report.spec.mitigations:
        for entry in report.ranked(mitigation)[:3]:
            o = entry.outcome
            rows.append([mitigation, entry.origin,
                         str(o.max_unmitigated), str(o.alerts),
                         str(o.mitigations), o.label])
        verdict = "dominated" if report.dominated(mitigation) \
            else "not beaten"
        rows.append([mitigation, "--", "", "", "",
                     f"paper set {verdict} by the fuzzed pool"])
    return rows


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="fuzz",
    title="Fuzz",
    description="Seeded attack-pattern fuzz sweep: max per-row "
                "escapes, fuzzed pool vs the paper attack set",
    grid=_grid,
    reduce=_reduce,
    render=framework.TableSpec(
        title="Fuzz sweep: top escapes per mitigation "
              "(max unmitigated ACTs per row, oracle ground truth)",
        columns=("Mitigation", "Origin", "Escapes", "ALERTs",
                 "Mitigations", "Pattern"),
        rows=_rows),
    checks=(
        framework.Check(
            label="fuzzed pattern dominates the paper attack set "
                  "vs TRR (1 = yes)",
            paper=1.0,
            measured=lambda r: float(r.dominated(DOMINANCE_TARGET)),
            abs_tol=0.0),
    ),
))
