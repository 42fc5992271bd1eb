"""Audit a set of Rowhammer trackers against the attack library.

Run:  python examples/security_audit.py

Drives four adversarial activation patterns against five trackers in
the single-bank harness and reports the ground-truth oracle's worst
per-row unmitigated count for each pairing.  This reproduces the
qualitative security story of the paper:

- TRR breaks under an eviction pattern (Section X);
- Mithril and MINT hold, at very different storage costs;
- PRAC holds by construction;
- MIRZA holds at a fraction of everyone's overheads.
"""

from __future__ import annotations

import random

from repro import MirzaConfig, MirzaTracker, SystemConfig
from repro.dram.mapping import StridedR2SA
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.prac import PracTracker
from repro.mitigations.trr import TrrTracker
from repro.security.attacks import SingleBankHarness
from repro.sim.stats import format_table
from repro.workloads.patterns import (
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    paper_attack_set,
)

TRHD = 1000
ACTS = 150_000


def build_trackers(system: SystemConfig):
    geometry = system.geometry
    mapping = StridedR2SA(geometry)

    def mirza():
        return MirzaTracker(MirzaConfig.paper_config(TRHD), geometry,
                            mapping, random.Random(1)), mapping

    def trr():
        return TrrTracker(entries=28, refs_per_mitigation=4), None

    def mithril():
        return MithrilTracker(entries=512, refs_per_mitigation=1), None

    def mint():
        return MintTracker(window=48, refs_per_mitigation=1,
                           rng=random.Random(2)), None

    def prac():
        return PracTracker(trhd=TRHD), None

    return {"MIRZA": mirza, "TRR": trr, "Mithril-512": mithril,
            "MINT": mint, "PRAC": prac}


def attacks(system: SystemConfig, mapping):
    ctx = CompileContext.make(mapping or StridedR2SA(system.geometry),
                              system)
    return {
        "focused hammer": iter([12_345] * ACTS),
        "double-sided": DoubleSided(victim_row=4096 + 7,
                                    acts=ACTS).rows(ctx),
        "feinting (36 rows)": paper_attack_set(
            ACTS, tracker_entries=32)["feinting"].rows(ctx),
        "TRR evasion": DecoyEvasion(table_entries=28, target_row=777,
                                    acts=ACTS, seed=7).rows(ctx),
    }


def main() -> None:
    system = SystemConfig()
    rows = []
    for name, build in build_trackers(system).items():
        for attack_name in attacks(system, None):
            tracker, mapping = build()
            harness = SingleBankHarness(tracker, system,
                                        mapping=mapping)
            stream = attacks(system, mapping)[attack_name]
            harness.run(stream)
            # Single-sided patterns are judged against TRHS = 2xTRHD
            # (Section VI-C); only the double-sided attack hammers at
            # the double-sided threshold.
            threshold = TRHD if attack_name == "double-sided" \
                else 2 * TRHD
            broken = harness.attack_succeeded(threshold)
            rows.append([
                name, attack_name, harness.max_unmitigated,
                threshold, harness.alerts, harness.mitigations,
                "BROKEN" if broken else "held",
            ])
    print(format_table(
        ["Tracker", "Attack", "max unmitigated ACTs", "bound",
         "ALERTs", "mitigations", "verdict"],
        rows, title=f"Security audit: {ACTS:,} adversarial "
                    f"activations per cell (TRHD={TRHD}, "
                    f"TRHS={2 * TRHD})"))


if __name__ == "__main__":
    main()
