"""Compare the slowdown of MIRZA against PRAC+ABO and MINT+RFM.

Run:  python examples/compare_mitigations.py [workload] [time_scale]

Simulates one scaled refresh window of a Table IV workload on the
8-core DDR5 system under each mitigation and reports the performance
and mitigation-resource picture the paper's Figures 3 and 11 are built
from.  Defaults: workload "cc", time scale 512 (a ~62.5 us window).
"""

from __future__ import annotations

import sys

from repro.params import SimScale
from repro.sim.runner import (
    baseline_setup,
    mint_rfm_setup,
    mirza_setup,
    naive_mirza_setup,
    prac_setup,
)
from repro.sim.session import SimJob, SimSession
from repro.sim.stats import format_table


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "cc"
    scale = SimScale(int(sys.argv[2]) if len(sys.argv) > 2 else 512)
    trhd = 1000

    print(f"Simulating workload {workload!r} over a "
          f"tREFW/{scale.time_scale} window (TRHD={trhd})...\n")
    setups = [
        prac_setup(trhd),
        mint_rfm_setup(trhd),
        naive_mirza_setup(48),
        mirza_setup(trhd, scale),
    ]
    # One batch: every protected run plus the baseline they share.
    session = SimSession()
    pairs = session.slowdowns(
        [SimJob(workload, setup, scale) for setup in setups])
    baseline = session.run(SimJob(workload, baseline_setup(), scale))
    print(f"Baseline: {baseline.total_activations:,} activations, "
          f"bus utilisation {100 * baseline.bus_utilization:.0f}%, "
          f"row-hit rate {100 * baseline.row_hit_rate:.0f}%\n")

    rows = []
    for setup, (slowdown, result) in zip(setups, pairs):
        rows.append([
            setup.name,
            f"{slowdown:.2f}%",
            sum(result.alerts),
            sum(result.rfms),
            result.mitigations,
            f"{result.refresh_power_overhead_pct():.3f}%",
        ])
    print(format_table(
        ["Mitigation", "Slowdown", "ALERTs", "RFMs", "Mitigations",
         "Refresh power ovh"],
        rows))
    print("\nPRAC pays its slowdown in inflated timings, MINT+RFM in "
          "proactive stalls;\nMIRZA filters >99% of activations and "
          "pays almost nothing.")


if __name__ == "__main__":
    main()
