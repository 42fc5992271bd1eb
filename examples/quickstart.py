"""Quickstart: provision MIRZA, attack it, watch it hold the line.

Run:  python examples/quickstart.py

This walks the three things a user of the library does most:

1. provision a MIRZA configuration for a target Rowhammer threshold
   (Table VII of the paper);
2. wire the tracker into the single-bank security harness;
3. drive an adversarial activation stream and check the ground-truth
   oracle: no row may ever exceed the threshold unmitigated.
"""

from __future__ import annotations

import random

from repro import MirzaConfig, MirzaTracker, SystemConfig
from repro.dram.mapping import StridedR2SA
from repro.security.attacks import SingleBankHarness
from repro.workloads.patterns import CompileContext, DoubleSided


def main() -> None:
    # 1. Provision for a double-sided threshold of 1000 (Table VII).
    config = MirzaConfig.paper_config(trhd=1000)
    print("MIRZA configuration for TRHD=1000")
    print(f"  filtering threshold (FTH): {config.fth}")
    print(f"  MINT window:               {config.mint_window}")
    print(f"  regions per bank:          {config.num_regions}")
    print(f"  queue entries / QTH:       {config.queue_entries} / "
          f"{config.qth}")
    print(f"  SRAM per bank:             "
          f"{config.storage_bytes_per_bank:.0f} bytes")
    print(f"  provably safe TRHD:        {config.safe_trhd()}")
    print()

    # 2. Build the tracker and the verification harness.
    system = SystemConfig()
    mapping = StridedR2SA(system.geometry)
    tracker = MirzaTracker(config, system.geometry, mapping,
                           random.Random(42))
    harness = SingleBankHarness(tracker, system)

    # 3. A double-sided attack: hammer the victim row's two physical
    #    neighbours flat out for two million activations.  The pattern
    #    spec compiles against the tracker's mapping, so "neighbours"
    #    means physically adjacent rows.
    attack = DoubleSided(victim_row=51_200, acts=2_000_000)
    print(f"Hammering the neighbours of row {attack.victim_row} with "
          f"{attack.acts:,} activations...")
    harness.run(attack.rows(CompileContext.make(mapping)))

    print(f"  ALERTs raised:        {harness.alerts:,}")
    print(f"  mitigations applied:  {harness.mitigations:,}")
    print(f"  worst unmitigated ACT count on any row: "
          f"{harness.max_unmitigated}")
    print(f"  attack succeeded (exceeded {config.trhd})? "
          f"{harness.attack_succeeded(config.trhd)}")
    assert not harness.attack_succeeded(config.trhd)
    print("\nMIRZA held: every row stayed below the threshold.")


if __name__ == "__main__":
    main()
