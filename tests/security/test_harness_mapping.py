"""Regression tests: the harness must share the tracker's mapping.

A mapping-aware tracker (MIRZA with strided R2SA) resets its RCT with
the *physical* refresh sweep; the oracle resets when the *logical* row
is refreshed.  If the harness's bank uses a different row-to-subarray
mapping than the tracker, the two reset schedules drift apart and the
measured "unmitigated" counts are meaningless (they once showed a
phantom 2x-FTH break).  The harness now adopts the tracker's mapping
automatically.
"""

import random

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.mitigations.trr import TrrTracker
from repro.params import SystemConfig
from repro.security.attacks import SingleBankHarness


def strided_mirza(system, seed=1):
    mapping = StridedR2SA(system.geometry)
    return MirzaTracker(MirzaConfig.paper_config(1000),
                        system.geometry, mapping, random.Random(seed))


class TestHarnessMappingAdoption:
    def test_harness_adopts_tracker_mapping(self):
        system = SystemConfig()
        tracker = strided_mirza(system)
        harness = SingleBankHarness(tracker, system)
        assert harness.bank.mapping is tracker.mapping

    def test_explicit_mapping_still_wins(self):
        system = SystemConfig()
        tracker = strided_mirza(system)
        explicit = SequentialR2SA(system.geometry)
        harness = SingleBankHarness(tracker, system, mapping=explicit)
        assert harness.bank.mapping is explicit

    def test_mapping_free_tracker_defaults_to_sequential(self):
        system = SystemConfig()
        harness = SingleBankHarness(TrrTracker(), system)
        assert isinstance(harness.bank.mapping, SequentialR2SA)

    def test_aligned_resets_keep_single_sided_bound(self):
        """With aligned mappings, a strided-MIRZA feinting run stays
        inside the single-sided phase budget (FTH + MINT + QTH + ABO);
        the historical mismatch bug showed ~2x FTH here."""
        from repro.security.mint_model import mint_tolerated_trhd
        from repro.security.mirza_model import abo_extra_acts
        from repro.workloads.patterns import CompileContext, \
            paper_attack_set

        system = SystemConfig()
        tracker = strided_mirza(system, seed=1)
        harness = SingleBankHarness(tracker, system)
        feint = paper_attack_set(150_000, tracker_entries=32)["feinting"]
        harness.run(feint.rows(CompileContext.make()))
        config = tracker.config
        # MINT's single-sided budget is twice its double-sided one.
        bound = (config.fth + 2 * mint_tolerated_trhd(config.mint_window)
                 + config.qth + abo_extra_acts() + 64)
        assert harness.max_unmitigated <= bound
