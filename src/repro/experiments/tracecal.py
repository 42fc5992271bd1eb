"""Trace-calibration exhibit: replay an ingested trace, check Table IV.

Closes the ingestion loop: a native trace (converted from a DRAMSim3
command trace or a litex row list via ``repro trace convert``) claims
to represent a Table IV workload through its ``# workload:`` metadata;
this exhibit replays it through the unprotected baseline and checks
the measured MPKI and ACT-PKI against that spec.

Two modes share one grid shape:

* ``trace_path`` option (or ``REPRO_TRACE_PATH``) set -- replay that
  file, one :class:`~repro.sim.session.TraceReplayJob` cell keyed by
  its claimed workload.
* default -- self-contained: for each selected workload, synthesize a
  finite trace from the calibrated generator and replay it, which
  validates the shard-replay path itself (capture -> replay must
  round-trip the workload's characteristics).

The declared ``Check``s pin the ``tc`` cell (MPKI 87.8, ACT-PKI 40.7)
at the framework's standard 50% tolerance; when ``tc`` is not in the
selection the checks fall back to the paper values (vacuously ok)
since check tuples are static declarations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

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


def _trace_path(ctx: Context) -> Optional[str]:
    return ctx.opt("trace_path", os.environ.get("REPRO_TRACE_PATH"))


def _grid(ctx: Context) -> List[Cell]:
    scale = ctx.timed_scale()
    seed = ctx.run_seed()
    path = _trace_path(ctx)
    if path:
        job = TraceReplayJob.for_path(path, baseline_setup(), scale,
                                      seed)
        if job.workload is None:
            raise ValueError(
                f"{path} carries no '# workload:' metadata; convert "
                f"it with --workload or set one to calibrate against")
        return [Cell(job.workload, job)]
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
