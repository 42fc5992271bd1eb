"""Trace-calibration exhibit: replay captured traces, check Table IV.

Closes the ingestion loop: for each selected workload, synthesize a
finite trace from the calibrated generator, replay it through the
unprotected baseline as a :class:`~repro.sim.session.TraceReplayJob`,
and check the measured MPKI and ACT-PKI against the workload's spec.
This validates the shard-replay path itself (capture -> replay must
round-trip the workload's characteristics).  A native trace file
(converted with ``repro trace convert``) is checked the same way by
``repro run PATH --setup baseline``, which prints its
``calibration[...]`` lines.

The declared ``Check``s pin the ``tc`` cell (MPKI 87.8, ACT-PKI 40.7)
at the framework's standard 50% tolerance; when ``tc`` is not in the
selection the checks fall back to the paper values (vacuously ok)
since check tuples are static declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments import framework
from repro.experiments.framework import Cell, Context
from repro.sim.runner import baseline_setup
from repro.sim.session import TraceReplayJob
from repro.workloads.specs import workload_by_name
from repro.workloads.tracefile import calibration_report


@dataclass
class TraceCalibration:
    """Replay measurements for one trace against its claimed spec."""

    workload: str
    mpki: float
    act_pki: float
    mpki_paper: float
    act_pki_paper: float
    mpki_ok: bool
    act_pki_ok: bool

    @property
    def ok(self) -> bool:
        return self.mpki_ok and self.act_pki_ok


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    return [Cell(spec.name,
                 TraceReplayJob(None, spec.name, baseline_setup(),
                                scale, seed))
            for spec in ctx.specs()]


def _reduce(cells: framework.Cells) -> Dict[str, TraceCalibration]:
    out: Dict[str, TraceCalibration] = {}
    for key in cells:
        result = cells[key]
        spec = workload_by_name(key)
        rows = {label: (measured, paper, ok) for label, measured,
                paper, ok in calibration_report(result, spec)}
        mpki, mpki_paper, mpki_ok = rows["MPKI"]
        act, act_paper, act_ok = rows["ACT-PKI"]
        out[key] = TraceCalibration(
            workload=key, mpki=mpki, act_pki=act,
            mpki_paper=mpki_paper, act_pki_paper=act_paper,
            mpki_ok=mpki_ok, act_pki_ok=act_ok)
    return out


def _rows(results: Dict[str, TraceCalibration]) -> List[List[str]]:
    return [[
        c.workload,
        f"{c.mpki:.1f}/{c.mpki_paper}",
        f"{c.act_pki:.1f}/{c.act_pki_paper}",
        "ok" if c.ok else "DEV",
    ] for c in results.values()]


def _measured(attr: str, fallback: float):
    """A Check accessor for the ``tc`` cell, tolerant of its absence.

    Check tuples are static while the workload selection is not; when
    ``tc`` was not replayed the check reports the paper value itself
    (vacuously within tolerance) instead of crashing the report.
    """
    def accessor(results: Dict[str, TraceCalibration]) -> float:
        cell = results.get("tc")
        return getattr(cell, attr) if cell is not None else fallback
    return accessor


_TC = workload_by_name("tc")

EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="tracecal",
    title="Trace calibration",
    description="Ingested-trace replay vs Table IV characteristics",
    grid=_grid,
    reduce=_reduce,
    render=framework.TableSpec(
        title="Trace calibration: replayed trace vs claimed "
              "Table IV spec (meas/paper)",
        columns=("Workload", "MPKI", "ACT-PKI", "Check"),
        rows=_rows),
    checks=(
        framework.Check(
            label="tc trace MPKI",
            paper=_TC.l3_mpki,
            measured=_measured("mpki", _TC.l3_mpki)),
        framework.Check(
            label="tc trace ACT-PKI",
            paper=_TC.act_pki,
            measured=_measured("act_pki", _TC.act_pki)),
    ),
))
