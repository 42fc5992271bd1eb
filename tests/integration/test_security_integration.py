"""End-to-end security: attacks vs defences, judged by the oracle.

These tests drive adversarial activation streams through the
single-bank harness and assert the paper's security claims:

- MIRZA (safe reset) bounds every row's unmitigated activations by the
  phase A-D budget of Section VI;
- the eager/lazy RCT reset policies of Appendix B leak ~2x FTH;
- TRR is broken by an eviction pattern while MIRZA is not;
- PRAC+ABO never lets a row cross its threshold;
- proactive MINT catches a focused hammer within its analytic bound.
"""

import random

import pytest

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.core.rct import ResetPolicy
from repro.dram.mapping import SequentialR2SA
from repro.experiments.table2 import FeintingJob
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.prac import PracTracker
from repro.mitigations.trr import TrrTracker
from repro.security.attacks import SingleBankHarness
from repro.security.mint_model import mint_tolerated_trhd
from repro.security.mirza_model import abo_extra_acts
from repro.sim.session import job_label
from repro.workloads.attacks import (
    double_sided_attack_stream,
    feinting_attack_stream,
    trr_evasion_pattern,
)

FTH = 40
WINDOW = 4
QTH = 4


def small_mirza(geometry, policy=ResetPolicy.SAFE, seed=0):
    config = MirzaConfig(trhd=0, fth=FTH, mint_window=WINDOW,
                         num_regions=geometry.subarrays_per_bank,
                         queue_entries=4, qth=QTH)
    return MirzaTracker(config, geometry, SequentialR2SA(geometry),
                        random.Random(seed), reset_policy=policy)


def harness_for(tracker, geometry, acts_per_ref=50):
    from repro.params import SystemConfig
    config = SystemConfig(geometry=geometry)
    return SingleBankHarness(tracker, config, acts_per_ref=acts_per_ref)


def mirza_bound():
    """Phase A-D budget for the small test configuration."""
    return (FTH + 2 * mint_tolerated_trhd(WINDOW) + QTH
            + abo_extra_acts() + 1)


class TestMirzaDefends:
    def test_single_row_hammer_bounded(self, small_geometry):
        h = harness_for(small_mirza(small_geometry), small_geometry)
        h.run(iter([777] * 30_000))
        assert h.max_unmitigated <= mirza_bound()
        assert h.mitigations > 0

    def test_double_sided_hammer_bounded(self, small_geometry):
        tracker = small_mirza(small_geometry, seed=11)
        h = harness_for(tracker, small_geometry)
        victim = 500
        h.run(double_sided_attack_stream(
            victim, tracker.mapping, 30_000))
        assert h.max_unmitigated <= mirza_bound()

    def test_multi_row_rotation_bounded(self, small_geometry):
        tracker = small_mirza(small_geometry, seed=5)
        h = harness_for(tracker, small_geometry)
        rows = [100, 200, 300, 400]
        h.run(iter([rows[i % 4] for i in range(40_000)]))
        assert h.max_unmitigated <= mirza_bound()

    def test_saturation_attack_stays_bounded_despite_drops(
            self, small_geometry):
        # Section V-D: with MINT-W >= the 4 ACTs an attacker lands
        # between ALERTs, insertions average one per ALERT.  Selection
        # jitter can still collide with a full queue under saturation;
        # a dropped selection simply re-participates in MINT, so the
        # oracle bound must hold regardless.
        tracker = small_mirza(small_geometry, seed=7)
        h = harness_for(tracker, small_geometry)
        h.run(iter([(i * 37) % 1024 for i in range(40_000)]))
        assert h.max_unmitigated <= mirza_bound()
        assert h.alerts > 0

    def test_benign_spread_traffic_never_alerts(self, small_geometry):
        tracker = small_mirza(small_geometry)
        h = harness_for(tracker, small_geometry)
        rng = random.Random(3)
        # Spread traffic that keeps each region under FTH within the
        # refresh window: filtered entirely, no queue pressure.
        stream = (rng.randrange(small_geometry.rows_per_bank)
                  for _ in range(3 * FTH))
        h.run(stream)
        assert h.alerts == 0
        assert h.mitigations == 0
        assert tracker.queue.dropped_insertions == 0


class TestResetPolicyAblation:
    """Appendix B: eager/lazy resets undercount around the sweep."""

    def _attack(self, geometry, policy):
        tracker = small_mirza(geometry, policy=policy)
        h = harness_for(tracker, geometry)
        target = 1023  # last physical row of region 0
        pad = 2048     # a row in another region (keeps REFs flowing)
        # Phase 1: FTH-1 activations just before the region's first REF.
        for _ in range(FTH - 1):
            h.activate(target)
        while h.refresh.refptr == 0:
            h.activate(pad)
        # Phase 2: FTH-1 more while region 0 is being swept (the target
        # row, at the end of the region, is refreshed last).
        for _ in range(FTH - 1):
            h.activate(target)
        return tracker, h

    def test_eager_reset_filters_everything(self, small_geometry):
        tracker, h = self._attack(small_geometry, ResetPolicy.EAGER)
        # Both batches were filtered: 2*(FTH-1) unmitigated ACTs and
        # the tracker never even saw a candidate.
        assert tracker.rct.escaped_acts == 0
        assert h.bank.oracle.count(1023) == 2 * (FTH - 1)

    def test_safe_reset_catches_second_batch(self, small_geometry):
        tracker, h = self._attack(small_geometry, ResetPolicy.SAFE)
        # The RRC remembers the pre-sweep count: the second batch
        # escapes the filter and participates in MINT.
        assert tracker.rct.escaped_acts > 0

    def test_lazy_reset_undercounts_after_sweep(self, small_geometry):
        tracker = small_mirza(small_geometry, policy=ResetPolicy.LAZY)
        h = harness_for(tracker, small_geometry)
        target = 0  # first physical row of region 0: refreshed first
        pad = 2048
        refs_per_region = tracker.rct.region_size // \
            h.refresh.rows_per_ref
        # Appendix B's lazy-policy attack: the target row is refreshed
        # by the *first* REF of the sweep.  FTH-1 activations between
        # that REF and the end-of-sweep reset, plus FTH-1 after the
        # reset, are all filtered -- 2*(FTH-1) unmitigated ACTs.
        while h.refresh.refptr < 1:
            h.activate(pad)
        for _ in range(FTH - 1):
            h.activate(target)
        while h.refresh.refptr < refs_per_region:
            h.activate(pad)
        for _ in range(FTH - 1):
            h.activate(target)
        assert h.bank.oracle.count(target) == 2 * (FTH - 1)


class TestTrrBroken:
    def test_evasion_pattern_breaks_trr(self, small_geometry):
        trr = TrrTracker(entries=8, refs_per_mitigation=4,
                         mitigation_threshold=32)
        h = SingleBankHarness(trr, acts_per_ref=50)
        h.run(trr_evasion_pattern(8, target_row=500, acts=30_000,
                                  seed=7))
        # The target accrues hundreds of unmitigated ACTs: far beyond
        # what the same pattern achieves against MIRZA.
        assert h.max_unmitigated > 300

    def test_same_pattern_contained_by_mirza(self, small_geometry):
        tracker = small_mirza(small_geometry, seed=2)
        h = harness_for(tracker, small_geometry)
        h.run(trr_evasion_pattern(8, target_row=500, acts=30_000,
                                  seed=7))
        assert h.max_unmitigated <= mirza_bound()


class TestPracDefends:
    def test_focused_hammer_never_crosses_threshold(self, small_geometry):
        trhd = 128
        h = SingleBankHarness(PracTracker(trhd=trhd),
                              acts_per_ref=50)
        h.run(iter([42] * 20_000))
        assert not h.attack_succeeded(trhd)

    def test_rotation_never_crosses_threshold(self, small_geometry):
        trhd = 128
        h = SingleBankHarness(PracTracker(trhd=trhd), acts_per_ref=50)
        rows = list(range(64))
        h.run(iter([rows[i % 64] for i in range(30_000)]))
        assert not h.attack_succeeded(trhd)


class TestMintProactive:
    def test_focused_hammer_caught_within_model_bound(self):
        window = 50
        tracker = MintTracker(window=window, refs_per_mitigation=1,
                              rng=random.Random(9))
        h = SingleBankHarness(tracker, acts_per_ref=window)
        h.run(iter([7] * 50_000))
        assert h.max_unmitigated <= mint_tolerated_trhd(window)


class TestMithrilFeinting:
    def test_feinting_attack_defines_worst_case(self):
        entries = 16
        tracker = MithrilTracker(entries=entries, refs_per_mitigation=1)
        h = SingleBankHarness(tracker, acts_per_ref=20)
        h.run(feinting_attack_stream(entries, 40_000))
        feinting_max = h.max_unmitigated

        focused = MithrilTracker(entries=entries, refs_per_mitigation=1)
        h2 = SingleBankHarness(focused, acts_per_ref=20)
        h2.run(iter([3] * 40_000))
        focused_max = h2.max_unmitigated
        # Feinting sustains strictly more unmitigated ACTs than a
        # naive focused hammer (Table II is built on this).
        assert feinting_max > focused_max


class TestFeintingJob:
    # Table II's measured Mithril column (128 entries, 150k ACTs),
    # captured with the O(entries) scan-based tracker.
    @pytest.mark.parametrize("rate, pinned",
                             [(1, 91), (2, 173), (4, 360), (8, 696)])
    def test_golden_worst_case(self, rate, pinned):
        assert FeintingJob(128, rate).execute() == pinned

    def test_labels_itself(self):
        assert job_label(FeintingJob(128, 4)) == \
            "feint:mithril-128/1-per-4-REF/150000"
