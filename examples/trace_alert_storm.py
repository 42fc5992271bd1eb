"""Trace an ALERT storm: MIRZA vs PRAC under a hammering workload.

Run:  python examples/trace_alert_storm.py [time_scale] [out_dir]

Builds a synthetic "hammer" workload -- almost every miss is a fresh
row activation, with the hot-row overlay cranked up so a few rows soak
most of the traffic -- and simulates it under MIRZA-1000 and PRAC-1000
with structured event tracing on.  Each run writes a Perfetto-loadable
Chrome trace (``mirza.trace.json`` / ``prac.trace.json``); load both
at https://ui.perfetto.dev and compare side by side:

- MIRZA's lanes show bursts of MITIGATE instants during REF windows
  and the occasional ALERT + STALL pair when the queue pressure wins.
- PRAC's channel lane shows the ALERT/STALL cadence of ABO back-off,
  the mechanism behind its Figure 11a slowdown.

PRAC's per-row ALERT threshold (~TRHD) is a full-window quantity, so
-- like MIRZA's FTH -- it is scaled down to the simulated window here;
otherwise no single row could reach it in a tREFW/512 slice and the
ABO lane would stay empty.

Defaults: time scale 512 (~62.5 us window), traces in the working
directory.  See docs/observability.md for the event taxonomy.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

from repro import obs
from repro.mitigations.prac import PracTracker, prac_alert_threshold
from repro.params import SimScale
from repro.sim.runner import mirza_setup, prac_setup, simulate
from repro.sim.stats import format_table
from repro.workloads.specs import WorkloadSpec

TRHD = 1000

HAMMER = WorkloadSpec(
    name="hammer", suite="attack",
    l3_mpki=100.0,        # memory-bound: a miss every ~10 instructions
    act_pki=95.0,         # ~no row-buffer locality: each miss an ACT
    bus_util_pct=90.0,
    acts_per_subarray_mean=1600.0,
    acts_per_subarray_std=1400.0,  # huge sigma -> hot-row concentration
)


@dataclasses.dataclass(frozen=True)
class _ScaledPracFactory:
    """PRAC trackers with the ALERT threshold scaled to the window."""

    threshold: int

    def __call__(self, seed: int, subch: int, bank: int) -> PracTracker:
        return PracTracker(TRHD, alert_threshold=self.threshold)


def scaled_prac_setup(scale: SimScale):
    threshold = max(2, scale.scale_threshold(
        prac_alert_threshold(TRHD)))
    return dataclasses.replace(
        prac_setup(TRHD),
        name="prac-scaled",
        tracker_factory=_ScaledPracFactory(threshold))


def trace_run(label: str, setup, scale: SimScale,
              out_dir: pathlib.Path):
    """Simulate HAMMER under ``setup``; write a Perfetto trace."""
    with obs.collecting("metrics", "trace") as col:
        result = simulate(HAMMER, setup, scale)
    path = out_dir / f"{label}.trace.json"
    written = col.write_chrome_trace(str(path))
    events = col.trace.as_list()
    by_name = {}
    for _, ph, name, _, _ in events:
        if ph in ("I", "B"):
            by_name[name] = by_name.get(name, 0) + 1
    print(f"{label}: {written} trace events -> {path}")
    return result, by_name


def main() -> None:
    scale = SimScale(int(sys.argv[1]) if len(sys.argv) > 1 else 512)
    out_dir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"Hammering workload over a tREFW/{scale.time_scale} window "
          f"(TRHD={TRHD})...\n")
    runs = [
        trace_run("mirza", mirza_setup(TRHD, scale), scale, out_dir),
        trace_run("prac", scaled_prac_setup(scale), scale, out_dir),
    ]
    print()

    names = ["ACT", "REF", "RFM", "DRFM", "ALERT", "STALL", "MITIGATE"]
    rows = []
    for label, (result, by_name) in zip(("mirza", "prac"), runs):
        rows.append([label, result.total_requests]
                    + [by_name.get(name, 0) for name in names])
    print(format_table(["setup", "requests"] + names, rows,
                       title="Event counts (instants + windows)"))
    print("\nLoad the *.trace.json files in https://ui.perfetto.dev "
          "to compare the per-bank lanes side by side.")


if __name__ == "__main__":
    main()
