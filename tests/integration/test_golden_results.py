"""Golden-results regression gate for the simulation kernel.

The kernel is deterministic: one ``(workload, setup, scale, seed)``
tuple must always produce the same :class:`repro.cpu.system.SimResult`.
These values were captured before the hot-path optimization pass
(``__slots__``, chunked traces, tuple-based serve path) and pin the
kernel's observable behaviour: any future "optimization" that changes
scheduling decisions, RNG consumption order, refresh sweeps, or tracker
bookkeeping fails here with a field-level diff rather than silently
shifting every downstream table.

Floats are compared after rounding to 6 decimals (the precision the
report prints at); integers must match exactly.

The registry cells never alert at this scale, so the ALERT path is
pinned separately: Table V's naive MIRZA at W=8, Q=1 and a MIRZA-1000
hammer, each under both kernel backends.  The backends share one ALERT
line, so their identity tests cannot catch a change to ALERT timing;
these cells can.
"""

from __future__ import annotations

import random

import pytest

from repro.cpu.system import MultiCoreSystem
from repro.cpu.trace import TraceEntry
from repro.params import SimScale, SystemConfig, ns
from repro.sim.backend import backend_by_name
from repro.sim.registry import setup_by_name
from repro.sim.runner import mirza_setup, naive_mirza_setup, simulate
from repro.workloads import AttackWorkload

SCALE = SimScale(2048)
SEED = 0

# Captured at SimScale(2048), seed 0, default SystemConfig.
GOLDEN = {
    ("tc", "baseline"): {
        "total_requests": 4477,
        "total_activations": 2298,
        "row_hit_rate": 0.48671,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 2,
        "ipc": [0.099792, 0.095744, 0.090816, 0.099264,
                0.099968, 0.100672, 0.100672, 0.101024],
        "bus_utilization": 0.429792,
    },
    ("tc", "prac-1000"): {
        "total_requests": 4157,
        "total_activations": 2186,
        "row_hit_rate": 0.47414,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 2,
        "ipc": [0.088704, 0.09328, 0.085888, 0.095744,
                0.093632, 0.094336, 0.088352, 0.091696],
        "bus_utilization": 0.399072,
    },
    ("tc", "mint-rfm-1000"): {
        "total_requests": 4335,
        "total_activations": 2243,
        "row_hit_rate": 0.482584,
        "alerts": [0, 0],
        "rfms": [1, 5],
        "mitigations": 6,
        "victim_rows_refreshed": 24,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 3,
        "ipc": [0.093456, 0.09064, 0.085888, 0.099616,
                0.096624, 0.096624, 0.098912, 0.1012],
        "bus_utilization": 0.41616,
    },
    ("tc", "mirza-1000"): {
        "total_requests": 4477,
        "total_activations": 2298,
        "row_hit_rate": 0.48671,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 2,
        "ipc": [0.099792, 0.095744, 0.090816, 0.099264,
                0.099968, 0.100672, 0.100672, 0.101024],
        "bus_utilization": 0.429792,
    },
    ("mcf", "baseline"): {
        "total_requests": 6448,
        "total_activations": 3541,
        "row_hit_rate": 0.450837,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 5,
        "ipc": [0.71656, 0.667376, 0.711472, 0.686032,
                0.624976, 0.671616, 0.704688, 0.685184],
        "bus_utilization": 0.619008,
    },
    ("mcf", "prac-1000"): {
        "total_requests": 5384,
        "total_activations": 3394,
        "row_hit_rate": 0.369614,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 4,
        "ipc": [0.524064, 0.618192, 0.594448, 0.564768,
                0.519824, 0.599536, 0.58512, 0.55968],
        "bus_utilization": 0.516864,
    },
    ("mcf", "mint-rfm-1000"): {
        "total_requests": 6140,
        "total_activations": 3390,
        "row_hit_rate": 0.447883,
        "alerts": [0, 0],
        "rfms": [18, 22],
        "mitigations": 40,
        "victim_rows_refreshed": 160,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 4,
        "ipc": [0.628368, 0.702992, 0.702144, 0.601232,
                0.611408, 0.630912, 0.653808, 0.675856],
        "bus_utilization": 0.58944,
    },
    ("mcf", "mirza-1000"): {
        "total_requests": 6448,
        "total_activations": 3541,
        "row_hit_rate": 0.450837,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 5,
        "ipc": [0.71656, 0.667376, 0.711472, 0.686032,
                0.624976, 0.671616, 0.704688, 0.685184],
        "bus_utilization": 0.619008,
    },
}


# Captured at SimScale(2048), seed 0, under both backends, before the
# ALERT line became incremental.
ALERT_GOLDEN = {
    ("mcf", "naive-mirza-w8-q1"): {
        "total_requests": 2135,
        "total_activations": 1226,
        "row_hit_rate": 0.425761,
        "alerts": [30, 28],
        "rfms": [0, 0],
        "mitigations": 143,
        "victim_rows_refreshed": 572,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 3,
        "ipc": [0.219632, 0.25016, 0.204368, 0.24592,
                0.218784, 0.208608, 0.22048, 0.242528],
        "bus_utilization": 0.20496,
    },
    ("tc", "naive-mirza-w8-q1"): {
        "total_requests": 1711,
        "total_activations": 934,
        "row_hit_rate": 0.45412,
        "alerts": [25, 28],
        "rfms": [0, 0],
        "mitigations": 108,
        "victim_rows_refreshed": 432,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 3,
        "ipc": [0.035376, 0.038896, 0.035024, 0.038192,
                0.03696, 0.039776, 0.033792, 0.04312],
        "bus_utilization": 0.164256,
    },
    ("hammer", "mirza-1000"): {
        "total_requests": 257,
        "total_activations": 253,
        "row_hit_rate": 0.015564,
        "alerts": [11, 0],
        "rfms": [0, 0],
        "mitigations": 11,
        "victim_rows_refreshed": 42,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 11,
        "ipc": [0.002048, 0.002064, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "bus_utilization": 0.024672,
    },
}


def _observed(result) -> dict:
    return {
        "total_requests": result.total_requests,
        "total_activations": result.total_activations,
        "row_hit_rate": round(result.row_hit_rate, 6),
        "alerts": result.alerts,
        "rfms": result.rfms,
        "mitigations": result.mitigations,
        "victim_rows_refreshed": result.victim_rows_refreshed,
        "demand_rows_refreshed": result.demand_rows_refreshed,
        "max_unmitigated_acts": result.max_unmitigated_acts,
        "ipc": [round(x, 6) for x in result.ipc],
        "bus_utilization": round(result.bus_utilization, 6),
    }


@pytest.mark.parametrize("workload,setup_name",
                         sorted(GOLDEN),
                         ids=lambda v: v)
def test_golden_sim_result(workload: str, setup_name: str) -> None:
    result = simulate(workload, setup_by_name(setup_name), SCALE,
                      seed=SEED)
    observed = _observed(result)
    expected = GOLDEN[(workload, setup_name)]
    mismatches = {
        field: (observed[field], want)
        for field, want in expected.items()
        if observed[field] != want
    }
    assert not mismatches, (
        f"{workload}/{setup_name} drifted from the golden capture "
        f"(observed, expected): {mismatches}")


def _hammer_run(backend: str):
    """Two cores hammer 24 random rows of bank 0 under MIRZA-1000."""

    def hammer():
        rng = random.Random(13)
        rows = [rng.randrange(4096) for _ in range(24)]
        while True:
            for row in rows:
                yield TraceEntry(compute_ps=ns(0.25), instructions=1,
                                 subchannel=0, bank=0, row=row)

    workload = AttackWorkload({0: hammer, 1: hammer}, mlp=4)
    setup = mirza_setup(1000, SCALE)
    config = SystemConfig()
    system = MultiCoreSystem(
        config,
        trace_factory=workload.trace_factory(),
        tracker_factory=lambda s, b: setup.tracker_factory(SEED, s, b),
        mapping_factory=lambda: setup.make_mapping(config),
        refs_per_window=SCALE.scaled_refs_per_window(config.timings),
        mlp=workload.mlp)
    return backend_by_name(backend).run(
        system, SCALE.scaled_trefw(config.timings))


@pytest.mark.parametrize("backend", ["event", "array"])
@pytest.mark.parametrize("workload,setup_name", sorted(ALERT_GOLDEN),
                         ids=lambda v: v)
def test_golden_alert_path(workload: str, setup_name: str,
                           backend: str) -> None:
    if workload == "hammer":
        result = _hammer_run(backend)
    else:
        result = simulate(workload,
                          naive_mirza_setup(8, queue_entries=1), SCALE,
                          seed=SEED, backend=backend)
    observed = _observed(result)
    expected = ALERT_GOLDEN[(workload, setup_name)]
    mismatches = {
        field: (observed[field], want)
        for field, want in expected.items()
        if observed[field] != want
    }
    assert not mismatches, (
        f"{workload}/{setup_name}/{backend} drifted from the golden "
        f"capture (observed, expected): {mismatches}")
