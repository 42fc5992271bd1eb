"""End-to-end security: attacks vs defences, judged by the oracle.

These tests drive adversarial activation streams through the
single-bank harness and assert the paper's security claims:

- MIRZA (safe reset) bounds every row's unmitigated activations by the
  phase A-D budget of Section VI;
- the eager/lazy RCT reset policies of Appendix B leak ~2x FTH;
- TRR is broken by an eviction pattern while MIRZA is not;
- PRAC+ABO never lets a row cross its threshold;
- proactive MINT catches a focused hammer within its analytic bound;
- across the tracker-vs-attack matrix every principled tracker holds.
"""

import random

import pytest

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.core.rct import ResetPolicy
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.experiments.table2 import FeintingJob
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.naive_mirza import NaiveMirzaTracker
from repro.mitigations.prac import PracTracker
from repro.mitigations.trr import TrrTracker
from repro.params import DramGeometry, SystemConfig
from repro.security.attacks import SingleBankHarness
from repro.security.mint_model import mint_tolerated_trhd
from repro.security.mirza_model import abo_extra_acts
from repro.sim.session import job_label
from repro.workloads.patterns import (
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    Feint,
    HalfDouble,
    NSided,
    RowCycle,
    Sequence,
    paper_attack_set,
)

FTH = 40
WINDOW = 4
QTH = 4


def small_mirza(geometry, policy=ResetPolicy.SAFE, seed=0, qth=QTH):
    config = MirzaConfig(trhd=0, fth=FTH, mint_window=WINDOW,
                         num_regions=geometry.subarrays_per_bank,
                         queue_entries=4, qth=qth)
    return MirzaTracker(config, geometry, SequentialR2SA(geometry),
                        random.Random(seed), reset_policy=policy)


def harness_for(tracker, geometry, acts_per_ref=50):
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
        h.run(DoubleSided(victim_row=victim, acts=30_000).rows(
            CompileContext.make(tracker.mapping)))
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


class TestQthAblation:
    def test_larger_qth_trades_alerts_for_budget(self, small_geometry):
        # QTH bounds how long a queued row absorbs ACTs before an
        # ALERT is forced (Phase C): a larger QTH defers ALERTs at the
        # cost of a larger worst-case unmitigated count.
        def hammer(qth):
            h = harness_for(small_mirza(small_geometry, seed=1, qth=qth),
                            small_geometry)
            h.run(iter([777] * 30_000))
            return h
        tight, loose = hammer(4), hammer(64)
        assert tight.alerts > loose.alerts
        assert tight.max_unmitigated <= loose.max_unmitigated


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
        # escapes the filter and participates in MINT, which leaves
        # fewer unmitigated ACTs than eager's 2*(FTH-1).
        assert tracker.rct.escaped_acts > 0
        assert h.bank.oracle.count(1023) < 2 * (FTH - 1)

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
        h.run(DecoyEvasion(table_entries=8, target_row=500,
                           acts=30_000, seed=7).rows(CompileContext.make()))
        # The target accrues hundreds of unmitigated ACTs: far beyond
        # what the same pattern achieves against MIRZA.
        assert h.max_unmitigated > 300

    def test_same_pattern_contained_by_mirza(self, small_geometry):
        tracker = small_mirza(small_geometry, seed=2)
        h = harness_for(tracker, small_geometry)
        h.run(DecoyEvasion(table_entries=8, target_row=500,
                           acts=30_000, seed=7).rows(CompileContext.make()))
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
        h.run(paper_attack_set(40_000, tracker_entries=entries)
              ["feinting"].rows(CompileContext.make()))
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
                             [(1, 90), (2, 173), (4, 360), (8, 696)])
    def test_golden_worst_case(self, rate, pinned):
        assert FeintingJob(128, rate).execute() == pinned

    def test_labels_itself(self):
        assert job_label(FeintingJob(128, 4)) == \
            "feint:mithril-128/1-per-4-REF/150000"


class TestFig12AttackKernel:
    def test_primes_the_region_then_sustains_alerts(self):
        system = SystemConfig()
        config = MirzaConfig.paper_config(1000)
        tracker = MirzaTracker(config, system.geometry,
                               StridedR2SA(system.geometry),
                               random.Random(3))
        h = SingleBankHarness(tracker, system)
        stride = system.geometry.subarrays_per_bank
        rows = [i * stride for i in range(8)]  # one RCT region
        total = 50_000
        h.run(rows[i % 8] for i in range(total))
        # Priming costs FTH ACTs: under 5% of the attack (paper: under
        # 1% of tREFW).
        assert config.fth / total < 0.05
        # Steady state: one selection per MINT window; the queue turns
        # between about half (selection jitter against a full queue)
        # and all of them into ALERTs.
        selections = (total - config.fth) / config.mint_window
        assert 0.4 * selections <= h.alerts <= 1.1 * selections


MATRIX_GEOMETRY = DramGeometry(banks_per_subchannel=2, subchannels=1,
                               rows_per_bank=4096, rows_per_subarray=1024,
                               rows_per_ref=16)
MATRIX_TRH = 260
MATRIX_ACTS = 60_000
MATRIX_TRACKERS = {
    "mirza": lambda mapping: MirzaTracker(
        MirzaConfig(trhd=MATRIX_TRH, fth=80, mint_window=4,
                    num_regions=4, qth=8),
        MATRIX_GEOMETRY, mapping, random.Random(3)),
    # MIRZA without the RCT filter: every ACT takes part in MINT.
    "naive-mirza": lambda mapping: NaiveMirzaTracker(
        4, qth=8, geometry=MATRIX_GEOMETRY, mapping=mapping,
        rng=random.Random(3)),
    "prac": lambda mapping: PracTracker(trhd=MATRIX_TRH),
    # MINT's window matches its REF pacing (one selection per REF).
    "mint": lambda mapping: MintTracker(window=12, refs_per_mitigation=1,
                                        rng=random.Random(4)),
    "mithril": lambda mapping: MithrilTracker(entries=64,
                                              refs_per_mitigation=1),
    "trr": lambda mapping: TrrTracker(entries=8, refs_per_mitigation=4),
}
MATRIX_ATTACKS = {
    "focused": lambda mapping: iter([777] * MATRIX_ACTS),
    "double-sided": lambda mapping: DoubleSided(
        victim_row=500, acts=MATRIX_ACTS).rows(
            CompileContext.make(mapping)),
    "evasion": lambda mapping: DecoyEvasion(
        table_entries=8, target_row=900, acts=MATRIX_ACTS, seed=7).rows(
            CompileContext.make(mapping)),
    # Sized to the 64-entry Mithril table it targets.
    "feinting": lambda mapping: paper_attack_set(
        MATRIX_ACTS, tracker_entries=64)["feinting"].rows(
            CompileContext.make(mapping)),
    "half-double": lambda mapping: HalfDouble(
        victim_row=500, acts=MATRIX_ACTS).rows(
            CompileContext.make(mapping)),
    "n-sided": lambda mapping: NSided(
        victim_row=500, sides=8, acts=MATRIX_ACTS).rows(
            CompileContext.make(mapping)),
    # Fill every table with the feint, then hammer one row: the
    # focused half starts against a primed tracker.
    "phased": lambda mapping: Sequence((
        Feint(tracker_entries=64, acts=MATRIX_ACTS // 2, decoys=8),
        RowCycle(row_list=(777,), acts=MATRIX_ACTS // 2),
    )).rows(CompileContext.make(mapping)),
    # One aggressor in each of MIRZA's four regions, so every RCT
    # counter climbs at once.
    "region-spread": lambda mapping: RowCycle(
        row_list=(100, 1100, 2100, 3100), acts=MATRIX_ACTS).rows(
            CompileContext.make(mapping)),
}
# Attacks whose aggressor set fits TRR's eight entries.
TRR_SIZED_ATTACKS = ("double-sided", "focused", "n-sided",
                     "region-spread")


class TestSecurityMatrix:
    """Every principled tracker against every attack pattern, judged by
    the oracle; TRR breaks to its eviction pattern, the way Section X
    describes."""

    def _worst(self, tracker, attack, mapping_cls=SequentialR2SA):
        mapping = mapping_cls(MATRIX_GEOMETRY)
        h = SingleBankHarness(MATRIX_TRACKERS[tracker](mapping),
                              SystemConfig(geometry=MATRIX_GEOMETRY),
                              acts_per_ref=12 if tracker == "mint" else 50)
        h.run(MATRIX_ATTACKS[attack](mapping))
        return h.max_unmitigated

    @pytest.mark.parametrize("attack", sorted(MATRIX_ATTACKS))
    @pytest.mark.parametrize("tracker", sorted(set(MATRIX_TRACKERS)
                                               - {"trr"}))
    def test_principled_trackers_bound_every_attack(self, tracker,
                                                    attack):
        assert self._worst(tracker, attack) <= MATRIX_TRH

    @pytest.mark.parametrize("attack", sorted(MATRIX_ATTACKS))
    @pytest.mark.parametrize("tracker", ["mirza", "naive-mirza"])
    def test_mirza_bounds_every_attack_under_strided_mapping(
            self, tracker, attack):
        """MIRZA's regions are runs of physical rows, so the strided
        row-to-subarray mapping regroups the rows each RCT counter and
        each edge check sees."""
        assert self._worst(tracker, attack, StridedR2SA) <= MATRIX_TRH

    def test_trr_breaks_to_its_eviction_pattern(self):
        assert self._worst("trr", "evasion") > MATRIX_TRH

    @pytest.mark.parametrize("attack", TRR_SIZED_ATTACKS)
    def test_trr_holds_attacks_that_fit_its_table(self, attack):
        """TRR fails through eviction alone: an aggressor set that
        fits its table stays tracked and is mitigated in time."""
        assert self._worst("trr", attack) <= MATRIX_TRH
