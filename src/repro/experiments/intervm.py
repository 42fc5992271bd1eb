"""Inter-VM extension exhibit: attacker pressure x mitigation.

A co-located attacker VM (two cores running the Figure 12 performance
kernel, behind its own seeded-permutation address space) shares the
device with a victim VM running a Table IV workload on the remaining
cores.  The sweep crosses attacker pressure (the kernel's K, 0 = idle
attacker) with mitigation setups and reports, per cell, the victim
tenant's IPC, its slowdown against the unprotected/no-attacker
reference cell, and each tenant's *escape exposure* -- the worst
unmitigated-ACT count inside the banks that tenant can reach.

This is the evaluation shape of the inter-VM RowHammer framework
literature, expressed through the same declarative experiment
machinery as the paper exhibits: one deduplicated grid of
:class:`~repro.sim.session.TenantJob` cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments import framework
from repro.experiments.framework import Cell, Context
from repro.sim.registry import setup_by_name
from repro.sim.session import TenantJob
from repro.workloads.tenants import intervm_scenario, \
    scenario_footprints

SETUPS = ("baseline", "prac-1000", "mint-rfm-1000", "mirza-1000")
"""Mitigation axis of the sweep (registry names)."""

PRESSURES = (0, 4, 32)
"""Attacker-pressure axis: K rows per attacking core (0 = idle)."""

REFERENCE = ("baseline", 0)
"""The cell victim slowdowns are measured against: unprotected, no
attacker."""


@dataclass
class InterVmPoint:
    """One (setup, pressure) cell of the sweep, reduced."""

    setup: str
    pressure: int
    victim_ipc: float
    victim_slowdown_pct: float
    victim_exposure: int
    attacker_exposure: int
    alerts: int


def _scenario(ctx: Context, pressure: int):
    return intervm_scenario(
        attack_rows=pressure,
        victim=ctx.opt("victim", "mcf"),
        attacker_cores=ctx.opt("attacker_cores", 2))


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    cells = []
    for setup_name in ctx.opt("setups", SETUPS):
        setup = setup_by_name(setup_name, scale)
        for pressure in ctx.opt("pressures", PRESSURES):
            cells.append(Cell(
                (setup_name, pressure),
                TenantJob(_scenario(ctx, pressure), setup, scale,
                          seed)))
    return cells


def _reduce(cells: framework.Cells
            ) -> Dict[Tuple[str, int], InterVmPoint]:
    ctx = cells.ctx
    setups = ctx.opt("setups", SETUPS)
    pressures = ctx.opt("pressures", PRESSURES)
    reference = cells[REFERENCE] if REFERENCE[0] in setups \
        and REFERENCE[1] in pressures else None
    out: Dict[Tuple[str, int], InterVmPoint] = {}
    for setup_name in setups:
        for pressure in pressures:
            result = cells[(setup_name, pressure)]
            footprints = scenario_footprints(
                _scenario(ctx, pressure), result.config)
            exposure = result.tenant_exposure(footprints)
            slowdown = result.tenant_slowdown_pct(
                reference, "victim") if reference is not None else 0.0
            out[(setup_name, pressure)] = InterVmPoint(
                setup=setup_name,
                pressure=pressure,
                victim_ipc=result.tenant_ipc().get("victim", 0.0),
                victim_slowdown_pct=slowdown,
                victim_exposure=exposure.get("victim", 0),
                attacker_exposure=exposure.get("attacker", 0),
                alerts=sum(result.alerts),
            )
    return out


def _rows(points: Dict[Tuple[str, int], InterVmPoint]
          ) -> List[List[str]]:
    return [[
        p.setup,
        str(p.pressure),
        f"{p.victim_ipc:.3f}",
        f"{p.victim_slowdown_pct:.1f}%",
        str(p.victim_exposure),
        str(p.attacker_exposure),
        str(p.alerts),
    ] for p in points.values()]


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="intervm",
    title="Inter-VM",
    description="Attacker pressure x mitigation: victim slowdown "
                "and escape exposure",
    grid=_grid,
    reduce=_reduce,
    render=framework.TableSpec(
        title="Inter-VM: victim slowdown and escape exposure "
              "(slowdown vs unprotected/no-attacker)",
        columns=("Setup", "K rows/core", "Victim IPC",
                 "Victim slowdown", "Victim exposure",
                 "Attacker-bank exposure", "ALERTs"),
        rows=_rows),
    checks=(
        framework.Check(
            label="victim slowdown, unprotected, no attacker (%)",
            paper=0.0,
            measured=lambda r: r[REFERENCE].victim_slowdown_pct,
            abs_tol=0.5),
    ),
))
