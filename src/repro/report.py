"""Full-evaluation report generator.

Renders a markdown report comparing the reproduction's numbers with
the paper's, suitable for writing to ``EXPERIMENTS.md``:

    python -m repro report EXPERIMENTS.md

The generator is data-driven: every exhibit is a registered
:class:`~repro.experiments.framework.Experiment` declaration, and the
whole report is laid out by the framework planner as a *single*
deduplicated session batch -- cells shared between exhibits (the PRAC
runs of Figures 3 and 11, the CGF measurements Table XIII transitively
re-uses, every slowdown cell's unprotected baseline) are simulated
exactly once.  Each exhibit's section carries the declared
paper-reference checks and the paper's shape claims with their flags,
and the report ends with the plan's dedup and wall-time footer.

The heavy exhibits honour the environment knobs
(``REPRO_TIME_SCALE``, ``REPRO_CGF_SCALE``, ``REPRO_WORKLOADS``), and
all simulation work is submitted through a
:class:`~repro.sim.session.SimSession` -- pass one to
:func:`generate_markdown` (or use the CLI's ``--jobs`` /
``--cache-dir`` flags) to fan simulations out over worker processes
and persist results across runs.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import repro.experiments  # noqa: F401  (registers every declaration)
from repro.experiments import framework
from repro.sim.session import FailurePolicy, SimSession

_PAPER_ORDER = [
    "table1", "table2", "fig3", "table4", "table5", "fig6", "table6",
    "table7", "fig11", "table8", "table9", "table10", "table11",
    "fig13", "table12", "table13", "fig1", "extras",
]
"""Registry names in the paper's presentation order."""


def _ordered_experiments() -> List[framework.Experiment]:
    ordered = [framework.experiment_by_name(name)
               for name in _PAPER_ORDER]
    known = {framework.canonical_name(e.name) for e in ordered}
    # Extension experiments registered outside the paper order go last.
    ordered.extend(
        e for e in framework.available_experiments()
        if framework.canonical_name(e.name) not in known)
    return ordered


EXHIBITS: List[Tuple[str, str, str]] = [
    (e.title, e.description, e.name) for e in _ordered_experiments()]
"""(display title, description, registry name) per exhibit, in paper
order.  Tests (and callers) may monkeypatch this to subset the report.
"""


def _canonical(name: str) -> str:
    """Normalise an exhibit name: 'Table X' == 'table10' == 'tableX'."""
    return framework.canonical_name(name)


def _selected(only: Optional[List[str]]) -> List[Tuple[str, str, str]]:
    if not only:
        return list(EXHIBITS)
    wanted = {_canonical(n) for n in only}
    return [e for e in EXHIBITS
            if _canonical(e[0]) in wanted or _canonical(e[2]) in wanted]


def _summary_table(selected: List[Tuple[str, str, str]],
                   plan: framework.Plan) -> List[str]:
    """The shared paper-vs-repro comparison table (markdown pipes)."""
    rows = []
    for title, _, name in selected:
        experiment = framework.experiment_by_name(name)
        result = plan.results.get(experiment.name)
        if result is None:
            continue
        for dev in framework.evaluate_checks(experiment, result):
            rows.append(f"| {title} | {dev.label} | {dev.measured:g} "
                        f"| {dev.paper:g} | {dev.flag} |")
        for claim in framework.evaluate_claims(experiment, result):
            rows.append(f"| {title} | {claim.label} | {claim.outcome} "
                        f"| holds | {claim.flag} |")
    if not rows:
        return []
    return [
        "## Paper vs reproduction at a glance",
        "",
        "| Exhibit | Reference check | measured | paper | flag |",
        "|---|---|---|---|---|",
        *rows,
        "",
        "`DEV` marks a check outside its declared tolerance (see the",
        "per-exhibit notes; scale-induced spread is expected at the",
        "default `REPRO_TIME_SCALE`).",
        "A row measured `holds` or `fails` is one of the paper's claims",
        "about a result's shape; `DEV` there means the claim fails.",
        "",
    ]


def _footer(plan: framework.Plan, elapsed: float) -> List[str]:
    stats = plan.stats
    line = (f"_{stats.experiments} experiments planned "
            f"{stats.planned_cells} cells -> {stats.unique_jobs} "
            f"unique jobs ({stats.deduplicated} deduplicated)")
    batch = plan.batch
    if batch is not None:
        line += (f"; session computed {batch.computed}, "
                 f"served {batch.cache_hits} from cache "
                 f"({100.0 * batch.hit_rate:.0f}% hit rate)")
        if batch.workers > 1:
            line += (f"; pool utilization "
                     f"{100.0 * batch.utilization:.0f}% over "
                     f"{batch.workers} workers")
        if batch.failed or batch.retried or batch.timed_out:
            line += (f"; {batch.failed} failed, {batch.retried} "
                     f"retried, {batch.timed_out} timed out")
    degraded = plan.degraded()
    if degraded:
        line += (f"; {len(degraded)} exhibit(s) DEGRADED "
                 f"({', '.join(degraded)})")
    line += f"; wall time {elapsed:.1f}s._"
    return ["---", "", line, ""]


def generate_markdown(only: Optional[List[str]] = None,
                      progress: bool = True,
                      session: Optional[SimSession] = None) -> str:
    """Run all (or ``only`` the named) exhibits; return the report.

    Every selected exhibit (plus its declared dependencies) is planned
    into one deduplicated session batch, so shared cells simulate once
    and ``SimSession(max_workers=N)`` parallelises the whole report.
    The rendered tables are byte-identical either way, and to the ones
    ``python -m repro run`` prints for the same exhibits and knobs.

    The report runs under
    :obj:`~repro.sim.session.FailurePolicy.KEEP_GOING` (when no
    ``session`` is supplied): a permanently-failed cell marks its
    exhibit DEGRADED -- every unaffected exhibit still renders -- and
    completed cells are cached as they finish, so a rerun resumes
    instead of recomputing.
    """
    if session is None:
        session = SimSession(failure_policy=FailurePolicy.KEEP_GOING)
    lines = [
        "# Reproduction report",
        "",
        "Generated by `python -m repro report`. Every block shows the",
        "reproduced numbers next to the paper's (see EXPERIMENTS.md",
        "for scale notes and commentary).",
        "",
    ]
    selected = _selected(only)
    start = time.perf_counter()
    plan = framework.plan([name for _, _, name in selected],
                          session=session)
    if progress:
        print(f"planned {plan.stats.planned_cells} cells across "
              f"{plan.stats.experiments} experiments "
              f"({plan.stats.unique_jobs} unique jobs, "
              f"{plan.stats.deduplicated} deduplicated); running...",
              flush=True)
    plan.execute()
    lines.extend(_summary_table(selected, plan))
    for title, description, name in selected:
        experiment = framework.experiment_by_name(name)
        result = plan.results[experiment.name]
        if progress:
            print(f"rendering {title}: {description}...", flush=True)
        lines.append(f"## {title} — {description}")
        lines.append("")
        if framework.is_degraded(result):
            lines.append("**DEGRADED** — some of this exhibit's cells "
                         "failed permanently; the numbers below are "
                         "the failure records, not results.")
            lines.append("")
        lines.append("```")
        lines.append(framework.render_experiment(experiment, result))
        lines.append("```")
        lines.append(f"_({plan.cell_count(name)} planned cells)_")
        for dev in framework.evaluate_checks(experiment, result):
            lines.append(f"- {dev.flag}: {dev.label} — measured "
                         f"{dev.measured:g}, paper {dev.paper:g}")
        for claim in framework.evaluate_claims(experiment, result):
            lines.append(f"- {claim.flag}: {claim.label} — "
                         f"{claim.outcome}")
        lines.append("")
    lines.extend(_footer(plan, time.perf_counter() - start))
    return "\n".join(lines)


def write_report(path: str, only: Optional[List[str]] = None,
                 session: Optional[SimSession] = None) -> None:
    """Generate the markdown report and write it to ``path``."""
    report = generate_markdown(only, session=session)
    with open(path, "w") as handle:
        handle.write(report)
    print(f"wrote {path}")
