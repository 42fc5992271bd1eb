"""Tests for the assembled DRAM device."""

import functools
import random

import pytest

from repro.dram.device import DramDevice
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.mitigations.none import NoMitigation
from repro.params import MitigationCosts, SimScale, SystemConfig
from repro.sim.registry import setup_by_name


class AlwaysAlertTracker(BankTracker):
    """Test double: wants an ALERT whenever it holds a pending row."""

    name = "test-always-alert"

    def __init__(self):
        self.pending = []
        self.ref_slices = []

    def on_activate(self, row, now_ps):
        self.pending.append(row)

    def wants_alert(self):
        return bool(self.pending)

    def on_mitigation_slot(self, now_ps, source):
        if source is MitigationSlotSource.REF or not self.pending:
            return []
        return [self.pending.pop(0)]

    def on_ref_slice(self, slice_, now_ps):
        self.ref_slices.append(slice_)


class RefMitigator(BankTracker):
    """Test double: mitigates its last ACT at every REF slot."""

    name = "test-ref-mitigator"

    def __init__(self):
        self.last = None

    def on_activate(self, row, now_ps):
        self.last = row

    def on_mitigation_slot(self, now_ps, source):
        if source is MitigationSlotSource.REF and self.last is not None:
            row, self.last = self.last, None
            return [row]
        return []


class TestDramDevice:
    def test_activate_reaches_bank_and_tracker(self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        device.activate(0, 10, 0)
        assert device.banks[0].total_activations == 1
        assert device.trackers[0].pending == [10]
        assert device.stats.activations == 1

    def test_alert_pending_any_bank(self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        assert not device.alert_pending()
        device.activate(2, 5, 0)
        assert device.alert_pending()

    def test_service_alert_mitigates_every_bank_with_work(self,
                                                          small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        device.activate(0, 10, 0)
        device.activate(1, 20, 0)
        victims = device.service_alert(100)
        assert device.stats.alerts_serviced == 1
        assert device.stats.mitigations_total == 2
        assert victims == 8  # two mitigations x 4 victims each

    def test_ref_refreshes_same_slice_all_banks(self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        slice_ = device.do_ref(0)
        assert device.stats.refs_issued == 1
        per_bank = len(slice_.logical_rows)
        assert device.stats.demand_rows_refreshed == \
            per_bank * device.num_banks
        for tracker in device.trackers:
            assert len(tracker.ref_slices) == 1

    def test_ref_slot_mitigations_counted_as_ref(self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: RefMitigator())
        device.activate(0, 100, 0)
        device.do_ref(10)
        assert device.stats.mitigations_by_source == {"ref": 1}

    def test_rfm_gives_slot_to_one_bank(self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        device.activate(3, 42, 0)
        mitigated = device.rfm(3, 50)
        assert mitigated == 1
        assert device.stats.rfms_issued == 1
        assert device.stats.mitigations_by_source == {"rfm": 1}

    def test_default_tracker_is_none(self, small_config):
        device = DramDevice(small_config)
        assert isinstance(device.trackers[0], NoMitigation)
        device.activate(0, 1, 0)
        assert not device.alert_pending()

    def test_oracle_attack_detection(self, small_config):
        device = DramDevice(small_config)
        for _ in range(100):
            device.activate(0, 7, 0)
        assert device.max_unmitigated_acts() == 100
        assert device.attack_succeeded(99)
        assert not device.attack_succeeded(100)

    def test_refresh_resets_oracle_counts(self, small_config):
        device = DramDevice(small_config)
        device.activate(0, 0, 0)
        # The first REF refreshes rows 0..15 (sequential sweep).
        device.do_ref(0)
        assert device.banks[0].oracle.count(0) == 0


class TestApplyActivations:
    """``apply_activations`` lands a run of ACTs on one bank; the report
    benchmark wraps it by name.  It must leave the device exactly as
    stepping ``activate`` over the same run does, ALERT line included."""

    @staticmethod
    def _device(setup, config, scale):
        factory = (None if setup.tracker_factory is None
                   else functools.partial(setup.tracker_factory, 0, 0))
        return DramDevice(
            config, factory, mapping=setup.make_mapping(config),
            refs_per_window=scale.scaled_refs_per_window(config.timings))

    @staticmethod
    def _state(device):
        return ([(b.open_row, b.total_activations, b.oracle._counts,
                  b.oracle.max_unmitigated) for b in device.banks],
                device.stats, sorted(device.alerting_banks))

    @pytest.mark.parametrize("setup_name", ["baseline", "prac-1000",
                                            "mint-rfm-1000", "mirza-1000"])
    def test_equals_stepping_activate(self, setup_name):
        scale = SimScale(2048)
        config = SystemConfig()
        setup = setup_by_name(setup_name, scale)
        applied = self._device(setup, config, scale)
        stepped = self._device(setup, config, scale)
        rng = random.Random(5)
        rows_per_bank = config.geometry.rows_per_bank
        hot = [rng.randrange(rows_per_bank) for _ in range(6)]
        now = 0
        for i in range(60):
            bank = rng.randrange(4)
            rows = [rng.choice(hot) if rng.random() < 0.7
                    else rng.randrange(rows_per_bank)
                    for _ in range(rng.randrange(1, 120))]
            times = list(range(now, now + len(rows)))
            now += len(rows)
            applied.apply_activations(bank, rows, times)
            for row, now_ps in zip(rows, times):
                stepped.activate(bank, row, now_ps)
            assert self._state(applied) == self._state(stepped)
            if stepped.alert_pending():
                assert applied.service_alert(now) \
                    == stepped.service_alert(now)
            if i % 5 == 0:
                assert applied.do_ref(now) == stepped.do_ref(now)
            if i % 7 == 0:
                assert applied.rfm(bank, now) == stepped.rfm(bank, now)
            assert self._state(applied) == self._state(stepped)
        if setup_name == "mirza-1000":
            assert stepped.stats.alerts_serviced > 0


class TestDeviceStats:
    def test_refresh_cannibalization_only_counts_ref_slots(
            self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: RefMitigator())
        device.activate(0, 100, 0)
        device.do_ref(0)
        costs = MitigationCosts()
        tRFC = small_config.timings.tRFC
        frac = device.stats.refresh_cannibalization(costs, tRFC)
        assert frac == costs.mitigation_time / tRFC

    def test_refs_and_alert_service_count_refreshed_rows(
            self, small_config):
        """The two terms of the refresh-power overhead: each REF
        refreshes its slice in every bank, and an ALERT mitigation
        refreshes its aggressor's four victims."""
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        for _ in range(4):
            device.do_ref(0)
        device.activate(0, 100, 0)
        device.service_alert(0)
        stats = device.stats
        assert stats.demand_rows_refreshed == \
            4 * small_config.geometry.rows_per_ref * device.num_banks
        assert (stats.mitigations_total, stats.victim_rows_refreshed) \
            == (1, 4)

    def test_one_alert_mitigates_one_of_many_pending_rows(
            self, small_config):
        device = DramDevice(small_config,
                            tracker_factory=lambda b: AlwaysAlertTracker())
        for i in range(10):
            device.activate(0, i, 0)
        device.service_alert(0)
        stats = device.stats
        assert (stats.activations, stats.alerts_serviced,
                stats.mitigations_total) == (10, 1, 1)
        assert stats.mitigations_by_source == {"alert": 1}
        assert device.trackers[0].pending == list(range(1, 10))

    def test_empty_stats_are_zero(self, small_config):
        device = DramDevice(small_config)
        assert device.stats.refresh_cannibalization(
            MitigationCosts(), 410_000) == 0.0
