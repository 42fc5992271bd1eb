"""DRAM energy accounting: mitigation energy and MIRZA's SRAM power.

The paper reports energy at two levels: the *relative* refresh-power
overhead of victim refreshes (Figures 3 and 13) and absolute chip
power (Section VIII-B: MIRZA's SRAM adds 0.6 mW against ~240 mW of
DRAM chip power).  This module turns those into absolute numbers: the
expected victim-refresh energy per activation, and the SRAM's share of
chip power.

Default constants follow DDR5 datasheet-derived values used by
DRAMPower-style calculators (order-of-magnitude faithful; the paper's
results only depend on ratios).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import MitigationCosts


@dataclass(frozen=True)
class EnergyParams:
    """Per-row refresh energy (picojoules) and power constants (mW)."""

    ref_per_row_pj: float = 55.0
    """Refreshing one row (demand or victim)."""

    mirza_sram_mw: float = 0.6
    """MIRZA's RCT/queue SRAM (Section VIII-B, CACTI-7.0)."""

    chip_power_mw: float = 240.0
    """Typical total DRAM chip power the paper normalises against."""


def mirza_sram_power_fraction(params: EnergyParams = EnergyParams()
                              ) -> float:
    """MIRZA SRAM power relative to chip power (~0.25%, Section
    VIII-B)."""
    return params.mirza_sram_mw / params.chip_power_mw


def mitigation_energy_per_act(window: int, escape_probability: float,
                              costs: MitigationCosts = MitigationCosts(),
                              params: EnergyParams = EnergyParams()
                              ) -> float:
    """Expected victim-refresh energy per activation (pJ).

    ``window`` is the MINT window; ``escape_probability`` is 1.0 for
    plain MINT and the RCT escape rate for MIRZA -- making the Table
    VIII rate ratio directly an energy ratio.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0.0 <= escape_probability <= 1.0:
        raise ValueError("escape probability must be in [0, 1]")
    mitigations_per_act = escape_probability / window
    return (mitigations_per_act * costs.victims_per_mitigation
            * params.ref_per_row_pj)
