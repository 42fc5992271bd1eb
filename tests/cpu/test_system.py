"""Tests for the assembled multi-core system."""

import pytest

from repro.cpu.system import MultiCoreSystem, SimResult
from repro.cpu.trace import TraceEntry
from repro.params import ns


def uniform_trace(config, compute_ns=50, rows=64):
    def factory(core_id):
        def gen():
            i = 0
            while True:
                yield TraceEntry(
                    compute_ps=ns(compute_ns), instructions=10,
                    subchannel=i % config.geometry.subchannels,
                    bank=(i * 7 + core_id) %
                    config.geometry.banks_per_subchannel,
                    row=(i * 13) % rows)
                i += 1
        return gen()
    return factory


class TestMultiCoreSystem:
    def test_run_produces_per_core_ipc(self, small_config):
        system = MultiCoreSystem(small_config,
                                 uniform_trace(small_config), mlp=4)
        result = system.run(ns(100_000))
        assert len(result.ipc) == small_config.num_cores
        assert all(ipc > 0 for ipc in result.ipc)

    def test_activations_recorded(self, small_config):
        system = MultiCoreSystem(small_config,
                                 uniform_trace(small_config), mlp=4)
        result = system.run(ns(50_000))
        assert result.total_activations > 0
        assert result.total_requests >= result.total_activations

    def test_deterministic(self, small_config):
        results = []
        for _ in range(2):
            system = MultiCoreSystem(small_config,
                                     uniform_trace(small_config), mlp=4)
            results.append(system.run(ns(50_000)))
        assert results[0].ipc == results[1].ipc
        assert results[0].total_requests == results[1].total_requests

    def test_requests_split_across_subchannels(self, small_config):
        system = MultiCoreSystem(small_config,
                                 uniform_trace(small_config), mlp=4)
        system.run(ns(50_000))
        assert all(mc.total_requests > 0 for mc in system.mcs)

    def test_zero_window_serves_nothing(self, small_config):
        system = MultiCoreSystem(small_config,
                                 uniform_trace(small_config), mlp=4)
        result = system.run(0)
        assert result.total_requests == 0


class TestSimResult:
    def _result(self, config, ipc):
        r = SimResult(window_ps=config.timings.tREFI * 100,
                      config=config)
        r.ipc = ipc
        return r

    def test_weighted_speedup_identity(self, small_config):
        base = self._result(small_config, [1.0, 2.0])
        assert base.weighted_speedup(base) == pytest.approx(2.0)
        assert base.normalized_performance(base) == pytest.approx(1.0)

    def test_slowdown_pct(self, small_config):
        base = self._result(small_config, [1.0, 1.0])
        slow = self._result(small_config, [0.9, 0.9])
        assert slow.slowdown_pct(base) == pytest.approx(10.0)

    def test_alerts_per_100_trefi(self, small_config):
        r = self._result(small_config, [1.0])
        r.alerts = [10, 10]
        # 100 tREFI window, 10 alerts per subchannel -> 10 per 100.
        assert r.alerts_per_100_trefi() == pytest.approx(10.0)

    def test_refresh_power_overhead_pct(self, small_config):
        r = self._result(small_config, [1.0])
        r.victim_rows_refreshed = 5
        r.demand_rows_refreshed = 100
        assert r.refresh_power_overhead_pct() == pytest.approx(5.0)

    def test_zero_baseline_core_ignored(self, small_config):
        base = self._result(small_config, [1.0, 0.0])
        other = self._result(small_config, [0.5, 0.7])
        assert other.normalized_performance(base) == pytest.approx(0.5)
