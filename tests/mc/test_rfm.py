"""Tests for the Refresh Management engine."""

import pytest

from repro.mc.rfm import RfmEngine


class TestRfmEngine:
    def test_disabled_when_bat_none(self):
        e = RfmEngine(4, None, 350_000)
        assert not e.on_activate(0)

    def test_fires_every_bat_activations(self):
        e = RfmEngine(2, 3, 350_000)
        fired = [e.on_activate(0) for _ in range(7)]
        assert fired == [False, False, True, False, False, True, False]
        assert e.rfms_issued == 2

    def test_counters_per_bank(self):
        e = RfmEngine(2, 3, 350_000)
        e.on_activate(0)
        e.on_activate(0)
        assert not e.on_activate(1)
        assert e.counter(0) == 2
        assert e.counter(1) == 1

    def test_counter_resets_on_fire(self):
        e = RfmEngine(1, 2, 350_000)
        e.on_activate(0)
        assert e.on_activate(0)
        assert e.counter(0) == 0

    def test_rejects_bad_bat(self):
        with pytest.raises(ValueError):
            RfmEngine(1, 0, 350_000)
