"""Tests for the multi-RFM-per-ALERT extension."""

import dataclasses
import random

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.device import DramDevice
from repro.dram.mapping import SequentialR2SA
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.params import AboTimings, SystemConfig, ns
from repro.security.attacks import SingleBankHarness


class QueueTracker(BankTracker):
    """Holds a list of pending rows; one per mitigation slot."""

    name = "queue"

    def __init__(self):
        self.pending = []

    def on_activate(self, row, now_ps):
        self.pending.append(row)

    def wants_alert(self):
        return bool(self.pending)

    def on_mitigation_slot(self, now_ps, source):
        if source is MitigationSlotSource.ALERT and self.pending:
            return [self.pending.pop(0)]
        return []


class TestAboTimings:
    def test_total_stall_scales_with_rfms(self):
        assert AboTimings(rfms_per_alert=1).total_stall == ns(350)
        assert AboTimings(rfms_per_alert=4).total_stall == ns(1400)

    def test_latency_includes_all_rfms(self):
        assert AboTimings(rfms_per_alert=2).latency == ns(180 + 700)

    def test_default_is_one_rfm(self):
        assert AboTimings().rfms_per_alert == 1


class TestDeviceMultiSlotAlert:
    def _device(self, rfms):
        abo = AboTimings(rfms_per_alert=rfms)
        config = dataclasses.replace(SystemConfig(), abo=abo)
        return DramDevice(config,
                          tracker_factory=lambda b: QueueTracker())

    def test_single_rfm_drains_one_entry_per_bank(self):
        device = self._device(1)
        for row in (10, 20, 30):
            device.activate(0, row, 0)
        device.service_alert(0)
        assert device.trackers[0].pending == [20, 30]

    def test_four_rfms_drain_four_entries(self):
        device = self._device(4)
        for row in (10, 20, 30):
            device.activate(0, row, 0)
        device.service_alert(0)
        assert device.trackers[0].pending == []
        assert device.stats.mitigations_total == 3

    def test_explicit_slot_override(self):
        device = self._device(1)
        for row in (10, 20, 30):
            device.activate(0, row, 0)
        device.service_alert(0, rfm_slots=2)
        assert device.trackers[0].pending == [30]

    def test_alert_count_is_one_regardless_of_slots(self):
        device = self._device(4)
        device.activate(0, 10, 0)
        device.service_alert(0)
        assert device.stats.alerts_serviced == 1


class TestControllerStallScaling:
    def test_stall_window_covers_all_rfms(self, small_config):
        from repro.mc.abo import AboEngine
        abo = AboTimings(rfms_per_alert=2)
        engine = AboEngine(abo)
        start, end = engine.assert_alert(ns(1000))
        assert end - start == ns(700)


class TestRfmsPerAlertAblation:
    """Section V-E picks 1 RFM per ALERT.  More RFMs drain more
    MIRZA-Q entries per stall, so fewer ALERTs, at a longer stall."""

    def _hammer(self, geometry, rfms):
        system = dataclasses.replace(SystemConfig(geometry=geometry),
                                     abo=AboTimings(rfms_per_alert=rfms))
        config = MirzaConfig(trhd=0, fth=40, mint_window=4,
                             num_regions=4, queue_entries=4, qth=8)
        tracker = MirzaTracker(config, geometry, SequentialR2SA(geometry),
                               random.Random(2))
        harness = SingleBankHarness(tracker, system, acts_per_ref=50)
        rows = [100, 200, 300, 400, 500, 600]
        harness.run(rows[i % 6] for i in range(30_000))
        return harness

    def test_more_rfms_fewer_alerts_same_security(self, small_geometry):
        one, two, four = (self._hammer(small_geometry, rfms)
                          for rfms in (1, 2, 4))
        assert one.alerts > two.alerts >= four.alerts
        # The mitigation total is roughly conserved...
        assert four.mitigations >= 0.5 * one.mitigations
        # ...and extra slots never weaken security.
        assert four.max_unmitigated <= one.max_unmitigated + 8
