"""Table I: DRAM timings (DDR5 specs for 6000AN) and the PRAC column."""

from __future__ import annotations

from typing import Dict

from repro.experiments import framework
from repro.experiments.framework import Check
from repro.params import DramTimings, ns
from repro.sim.stats import format_table

PAPER_ROWS = {
    "tRCD": (14, 14),
    "tRP": (14, 36),
    "tRAS": (32, 16),
    "tRC": (46, 52),
}
"""Parameter -> (DDR5 ns, PRAC ns)."""


def _reduce(cells: framework.Cells) -> Dict[str, Dict[str, int]]:
    base = DramTimings()
    prac = base.with_prac()
    out = {}
    for name in PAPER_ROWS:
        out[name] = {
            "ddr5_ns": getattr(base, name) // ns(1),
            "prac_ns": getattr(prac, name) // ns(1),
        }
    out["tREFW"] = {"ddr5_ns": base.tREFW // ns(1), "prac_ns": None}
    out["tREFI"] = {"ddr5_ns": base.tREFI // ns(1), "prac_ns": None}
    out["tRFC"] = {"ddr5_ns": base.tRFC // ns(1), "prac_ns": None}
    return out


def _render(values: Dict[str, Dict[str, int]]) -> str:
    rows = []
    for name, cells in values.items():
        paper = PAPER_ROWS.get(name)
        rows.append([
            name,
            cells["ddr5_ns"],
            cells["prac_ns"] if cells["prac_ns"] is not None else "-",
            paper[0] if paper else cells["ddr5_ns"],
            paper[1] if paper else "-",
        ])
    return format_table(
        ["Param", "model DDR5", "model PRAC", "paper DDR5",
         "paper PRAC"],
        rows, title="Table I: DRAM timings (ns)")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="table1",
    title="Table I",
    description="DRAM timings",
    paper=PAPER_ROWS,
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
    checks=(
        Check("PRAC tRC ns", PAPER_ROWS["tRC"][1],
              lambda r: r["tRC"]["prac_ns"], rel_tol=0.0),
        Check("DDR5 tRC ns", PAPER_ROWS["tRC"][0],
              lambda r: r["tRC"]["ddr5_ns"], rel_tol=0.0),
    ),
))
