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
hammer.  ``FAMILY_GOLDEN`` pins every other tracker family the
repository ships (TRR, PARA, Mithril, Hydra, PrIDE, ProTRR,
naive MIRZA at W=12 and MIST at 500 and 1000), and ``REPLAY_GOLDEN``
pins the ingestion path: the DRAMSim3 fixture converted and replayed under
MIRZA-1000 and PRAC-1000.  ``FUZZ_GOLDEN`` pins one compiled sample of
every fuzz pattern family, unprotected and under MIRZA-1000, and
``TENANT_GOLDEN`` the inter-VM cell (eight attack rows against ``mcf``)
under each setup of the inter-VM sweep.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.cpu.system import MultiCoreSystem
from repro.cpu.trace import TraceEntry
from repro.params import SimScale, SystemConfig, ns
from repro.security.fuzz import FAMILIES, sample_pattern
from repro.sim.registry import setup_by_name
from repro.sim.runner import (
    MitigationSetup,
    _bank_rng,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    simulate,
    simulate_source,
    simulate_tenants,
    simulate_trace,
)
from repro.workloads import AttackWorkload
from repro.workloads.patterns import CompileContext
from repro.workloads.tenants import intervm_scenario, scenario_footprints
from repro.workloads.tracefile import convert_trace

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


# Captured at SimScale(2048), seed 0, before the ALERT line became
# incremental.
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


def _trr(seed, subch, bank):
    from repro.mitigations.trr import TrrTracker
    return TrrTracker(entries=28, refs_per_mitigation=4)


def _para(seed, subch, bank):
    from repro.mitigations.para import ParaTracker
    return ParaTracker(1.0 / 16, rng=_bank_rng(seed, subch, bank))


def _mithril(seed, subch, bank):
    from repro.mitigations.mithril import MithrilTracker
    return MithrilTracker(entries=2048)


def _hydra(seed, subch, bank):
    from repro.mitigations.hydra import HydraTracker
    return HydraTracker()


def _pride(seed, subch, bank):
    from repro.mitigations.pride import PrideTracker
    return PrideTracker(rng=_bank_rng(seed, subch, bank))


def _protrr(seed, subch, bank):
    from repro.mitigations.protrr import ProTrrTracker
    return ProTrrTracker(entries=2048)


FAMILY_SETUPS = {
    "trr": lambda: MitigationSetup("trr", _trr),
    "para": lambda: MitigationSetup("para", _para),
    "mithril": lambda: MitigationSetup("mithril", _mithril),
    "hydra": lambda: MitigationSetup("hydra", _hydra),
    "pride": lambda: MitigationSetup("pride", _pride),
    "protrr": lambda: MitigationSetup("protrr", _protrr),
    "naive-mirza-w12": lambda: naive_mirza_setup(12),
    "mist-500": lambda: mist_setup(500),
    "mist-1000": lambda: mist_setup(1000),
}
"""The tracker families outside the registry (``tc`` at ``SCALE``)."""

# Captured at SimScale(2048), seed 0, on "tc"; the event and array
# kernels agreed on every cell when it was captured.
_TC_IPC = [0.099792, 0.095744, 0.090816, 0.099264,
           0.099968, 0.100672, 0.100672, 0.101024]


def _tc_cell(mitigations: int, victims: int) -> dict:
    """A ``tc`` cell whose tracker never stalls the channel: every
    timing field equals the unprotected baseline's."""
    return {
        "total_requests": 4477,
        "total_activations": 2298,
        "row_hit_rate": 0.48671,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": mitigations,
        "victim_rows_refreshed": victims,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 2,
        "ipc": _TC_IPC,
        "bus_utilization": 0.429792,
    }


FAMILY_GOLDEN = {
    "trr": _tc_cell(0, 0),
    "para": _tc_cell(114, 454),
    "mithril": _tc_cell(256, 1024),
    "hydra": _tc_cell(0, 0),
    "pride": _tc_cell(114, 454),
    "protrr": _tc_cell(256, 1024),
    "naive-mirza-w12": {
        "total_requests": 4294,
        "total_activations": 2218,
        "row_hit_rate": 0.483465,
        "alerts": [1, 2],
        "rfms": [0, 0],
        "mitigations": 93,
        "victim_rows_refreshed": 372,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 3,
        "ipc": [0.092576, 0.091872, 0.086416, 0.097856,
                0.094336, 0.098912, 0.096096, 0.09768],
        "bus_utilization": 0.412224,
    },
    # The MIST cells were (re)captured when a DRFM blackout began
    # waiting for the ACTs already booked on every bank it serves.
    "mist-500": {
        "total_requests": 4182,
        "total_activations": 2190,
        "row_hit_rate": 0.476327,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 82,
        "victim_rows_refreshed": 328,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 3,
        "ipc": [0.089056, 0.089056, 0.083424, 0.096096,
                0.0968, 0.097152, 0.088704, 0.095744],
        "bus_utilization": 0.401472,
    },
    "mist-1000": {
        "total_requests": 4438,
        "total_activations": 2276,
        "row_hit_rate": 0.487156,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 41,
        "victim_rows_refreshed": 164,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 2,
        "ipc": [0.094512, 0.098208, 0.093456, 0.097856,
                0.101904, 0.100144, 0.096976, 0.098032],
        "bus_utilization": 0.426048,
    },
}

# tests/fixtures/tc.dramsim3 converted with --workload tc
# --instructions 11, replayed at SimScale(4096), seed 0 (captured with
# the FAMILY_GOLDEN cells; both kernels agreed on each).
REPLAY_SCALE = SimScale(4096)


def _replay_cell(acts: int, row_hit_rate: float) -> dict:
    """Replay is open loop: every core retires the same trace slice."""
    return {
        "total_requests": 1600,
        "total_activations": acts,
        "row_hit_rate": row_hit_rate,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": 2,
        "ipc": [0.0704] * 8,
        "bus_utilization": 0.3072,
    }


REPLAY_GOLDEN = {
    "mirza-1000": _replay_cell(844, 0.4725),
    "prac-1000": _replay_cell(849, 0.469375),
}

# One sample per fuzz family (random.Random(11), 3000 ACTs) compiled
# onto core 0, at SimScale(4096), seed 3; captured alongside the cells
# above, with both kernels agreeing on each.
FUZZ_SCALE = SimScale(4096)


def _fuzz_cell(requests: int, acts: int, alerts: int,
               max_unmitigated: int, ipc: float, bus: float,
               row_hit_rate: float = 0.0) -> dict:
    """A one-core hammer: every mitigation is one ALERT's, on
    subchannel 0, refreshing four victims."""
    return {
        "total_requests": requests,
        "total_activations": acts,
        "row_hit_rate": row_hit_rate,
        "alerts": [alerts, 0],
        "rfms": [0, 0],
        "mitigations": alerts,
        "victim_rows_refreshed": 4 * alerts,
        "demand_rows_refreshed": 8388608,
        "max_unmitigated_acts": max_unmitigated,
        "ipc": [ipc] + [0.0] * 7,
        "bus_utilization": bus,
    }


_EVASION = _fuzz_cell(163, 162, 0, 4, 0.005216, 0.031296,
                      row_hit_rate=0.006135)

FUZZ_GOLDEN = {
    ("double-sided", "baseline"):
        _fuzz_cell(162, 162, 0, 81, 0.005184, 0.031104),
    ("double-sided", "mirza-1000"):
        _fuzz_cell(132, 132, 4, 34, 0.004224, 0.025344),
    ("n-sided", "baseline"):
        _fuzz_cell(162, 162, 0, 27, 0.005184, 0.031104),
    ("n-sided", "mirza-1000"):
        _fuzz_cell(142, 142, 3, 13, 0.004544, 0.027264),
    ("half-double", "baseline"):
        _fuzz_cell(162, 162, 0, 76, 0.005184, 0.031104),
    ("half-double", "mirza-1000"):
        _fuzz_cell(139, 139, 4, 34, 0.004448, 0.026688),
    ("feint", "baseline"):
        _fuzz_cell(162, 162, 0, 3, 0.005184, 0.031104),
    ("feint", "mirza-1000"):
        _fuzz_cell(154, 154, 1, 4, 0.004928, 0.029568),
    ("evasion", "baseline"): _EVASION,
    ("evasion", "mirza-1000"): _EVASION,
    ("refresh-sync", "baseline"):
        _fuzz_cell(162, 162, 0, 38, 0.005184, 0.031104),
    ("refresh-sync", "mirza-1000"):
        _fuzz_cell(154, 154, 1, 21, 0.004928, 0.029568),
}

# intervm_scenario(attack_rows=8, victim="mcf") at SimScale(4096),
# seed 0: cores 0-1 are the attacker VM, cores 2-7 the victim.
# "exposure" is each tenant's worst unmitigated count over its own
# rows.  Captured alongside the cells above, both kernels agreeing.
TENANT_SCALE = SimScale(4096)

TENANT_GOLDEN = {
    "baseline": {
        "total_requests": 2102,
        "total_activations": 1193,
        "row_hit_rate": 0.432445,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "max_unmitigated_acts": 8,
        "ipc": [0.002112, 0.00208, 0.496928, 0.615648,
                0.5088, 0.41552, 0.639392, 0.666528],
        "bus_utilization": 0.403584,
        "exposure": {"attacker": 8, "victim": 8},
    },
    "prac-1000": {
        "total_requests": 1602,
        "total_activations": 1060,
        "row_hit_rate": 0.338327,
        "alerts": [0, 0],
        "rfms": [0, 0],
        "mitigations": 0,
        "victim_rows_refreshed": 0,
        "max_unmitigated_acts": 7,
        "ipc": [0.001792, 0.00176, 0.374816, 0.430784,
                0.371424, 0.278144, 0.539328, 0.53424],
        "bus_utilization": 0.307584,
        "exposure": {"attacker": 7, "victim": 7},
    },
    "mint-rfm-1000": {
        "total_requests": 2045,
        "total_activations": 1148,
        "row_hit_rate": 0.438631,
        "alerts": [0, 0],
        "rfms": [3, 0],
        "mitigations": 3,
        "victim_rows_refreshed": 12,
        "max_unmitigated_acts": 7,
        "ipc": [0.001952, 0.001952, 0.461312, 0.622432,
                0.459616, 0.41552, 0.714016, 0.588512],
        "bus_utilization": 0.39264,
        "exposure": {"attacker": 7, "victim": 7},
    },
    "mirza-1000": {
        "total_requests": 1728,
        "total_activations": 986,
        "row_hit_rate": 0.429398,
        "alerts": [3, 0],
        "rfms": [0, 0],
        "mitigations": 4,
        "victim_rows_refreshed": 16,
        "max_unmitigated_acts": 7,
        "ipc": [0.00176, 0.001728, 0.408736, 0.561376,
                0.43248, 0.323936, 0.481664, 0.537632],
        "bus_utilization": 0.331776,
        "exposure": {"attacker": 7, "victim": 7},
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


def _assert_golden(result, expected: dict, label: str,
                   observed: dict = None) -> None:
    if observed is None:
        observed = _observed(result)
    mismatches = {
        field: (observed[field], want)
        for field, want in expected.items()
        if observed[field] != want
    }
    assert not mismatches, (
        f"{label} drifted from the golden capture "
        f"(observed, expected): {mismatches}")


@pytest.mark.parametrize("workload,setup_name",
                         sorted(GOLDEN),
                         ids=lambda v: v)
def test_golden_sim_result(workload: str, setup_name: str) -> None:
    result = simulate(workload, setup_by_name(setup_name), SCALE,
                      seed=SEED)
    _assert_golden(result, GOLDEN[(workload, setup_name)],
                   f"{workload}/{setup_name}")


@pytest.mark.parametrize("setup_name", sorted(FAMILY_GOLDEN))
def test_golden_tracker_family(setup_name: str) -> None:
    result = simulate("tc", FAMILY_SETUPS[setup_name](), SCALE,
                      seed=SEED)
    _assert_golden(result, FAMILY_GOLDEN[setup_name], f"tc/{setup_name}")


@pytest.mark.parametrize("setup_name", sorted(REPLAY_GOLDEN))
def test_golden_trace_replay(tmp_path, setup_name: str) -> None:
    fixture = os.path.join(os.path.dirname(__file__), os.pardir,
                           "fixtures", "tc.dramsim3")
    trace = str(tmp_path / "tc.trace")
    convert_trace(fixture, trace, workload="tc", instructions=11)
    result = simulate_trace(trace, setup_by_name(setup_name, REPLAY_SCALE),
                            REPLAY_SCALE, seed=SEED)
    _assert_golden(result, REPLAY_GOLDEN[setup_name],
                   f"tc.dramsim3/{setup_name}")


def test_fuzz_golden_covers_every_family() -> None:
    assert {family for family, _ in FUZZ_GOLDEN} == set(FAMILIES)


@pytest.mark.parametrize("family,setup_name", sorted(FUZZ_GOLDEN),
                         ids=lambda v: v)
def test_golden_fuzzed_cell(family: str, setup_name: str) -> None:
    pattern = sample_pattern(random.Random(11), family, acts=3000,
                             config=SystemConfig())
    source = pattern.workload(CompileContext.make(), cores=(0,), mlp=1)
    result = simulate_source(source, setup_by_name(setup_name, FUZZ_SCALE),
                             FUZZ_SCALE, seed=3)
    _assert_golden(result, FUZZ_GOLDEN[(family, setup_name)],
                   f"{family}/{setup_name}")


@pytest.mark.parametrize("setup_name", sorted(TENANT_GOLDEN))
def test_golden_intervm_cell(setup_name: str) -> None:
    scenario = intervm_scenario(attack_rows=8, victim="mcf")
    result = simulate_tenants(scenario,
                              setup_by_name(setup_name, TENANT_SCALE),
                              TENANT_SCALE, seed=SEED)
    observed = _observed(result)
    observed["exposure"] = result.tenant_exposure(
        scenario_footprints(scenario, result.config))
    _assert_golden(result, TENANT_GOLDEN[setup_name],
                   f"intervm/{setup_name}", observed)


def hammer_workload() -> AttackWorkload:
    """Two cores hammer 24 random rows of bank 0."""

    def hammer():
        rng = random.Random(13)
        rows = [rng.randrange(4096) for _ in range(24)]
        while True:
            for row in rows:
                yield TraceEntry(compute_ps=ns(0.25), instructions=1,
                                 subchannel=0, bank=0, row=row)

    return AttackWorkload({0: hammer, 1: hammer}, mlp=4)


def _hammer_run():
    """The :func:`hammer_workload` under MIRZA-1000."""
    workload = hammer_workload()
    setup = mirza_setup(1000, SCALE)
    config = SystemConfig()
    system = MultiCoreSystem(
        config,
        trace_factory=workload.trace_factory(),
        tracker_factory=lambda s, b: setup.tracker_factory(SEED, s, b),
        mapping_factory=lambda: setup.make_mapping(config),
        refs_per_window=SCALE.scaled_refs_per_window(config.timings),
        mlp=workload.mlp)
    return system.run(SCALE.scaled_trefw(config.timings))


@pytest.mark.parametrize("workload,setup_name", sorted(ALERT_GOLDEN),
                         ids=lambda v: v)
def test_golden_alert_path(workload: str, setup_name: str) -> None:
    if workload == "hammer":
        result = _hammer_run()
    else:
        result = simulate(workload,
                          naive_mirza_setup(8, queue_entries=1), SCALE,
                          seed=SEED)
    _assert_golden(result, ALERT_GOLDEN[(workload, setup_name)],
                   f"{workload}/{setup_name}")
