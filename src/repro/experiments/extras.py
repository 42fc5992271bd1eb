"""Extension exhibits beyond the paper's own tables and figures.

One exhibit, ``extras``, whose Result maps each key to a rendered
table:

- ``lifetime`` -- what the calibrated failure exponent means at
  machine and fleet scale (the context behind Table II's security
  column).
- ``energy`` -- absolute mitigation-energy per activation for MINT vs
  MIRZA (Figure 13 recast in picojoules) plus the SRAM power fraction
  of Section VIII-B.
- ``storage`` -- each tracker design's SRAM bill per bank at
  TRHD=1000 side by side, priced by :mod:`repro.security.area` (the
  MIRZA and MINT rows equal Table VII's and Table XII's).
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import MirzaConfig
from repro.energy import (
    mirza_sram_power_fraction,
    mitigation_energy_per_act,
)
from repro.experiments import framework
from repro.security.area import (
    hydra_storage_bytes_per_bank,
    mint_storage_bytes_per_bank,
    mithril_storage_bytes_per_bank,
    pride_storage_bytes_per_bank,
    trr_storage_bytes_per_bank,
)
from repro.security.lifetime import lifetime_report
from repro.security.mint_model import MINT_FAILURE_EXPONENT
from repro.sim.runner import MINT_RFM_WINDOWS
from repro.sim.stats import format_table


def _lifetime_table() -> str:
    """Fleet-lifetime interpretation of candidate failure exponents.

    Note the calibrated k = 28.5 is the *simplified* model's constant
    fit to the paper's tolerated-TRH numbers; it treats every refresh
    window as an independent attack trial, which is far more
    pessimistic than the published MINT lifetime analysis.  The table
    shows how k maps to fleet risk under that pessimistic reading --
    the operative rows are the larger exponents a deployment would
    provision for.
    """
    rows = []
    for k in (MINT_FAILURE_EXPONENT, 40.0, 50.0, 60.0):
        report = lifetime_report(k)
        rows.append([
            f"{k:.1f}",
            f"{report.single_machine_mttf_years:.3g} y",
            f"{report.single_machine_failure_10y:.3g}",
            f"{report.fleet_1k_failure_10y:.3g}",
        ])
    return format_table(
        ["fail exponent k", "1-machine MTTF",
         "P(fail, 1 machine, 10y)", "P(fail, 1k fleet, 10y)"],
        rows, title="Lifetime arithmetic behind the 2^-k budgets")


def _energy_table() -> str:
    """Mitigation energy per activation, MINT vs MIRZA (pJ)."""
    escapes = {500: 1 / 30, 1000: 1 / 114, 2000: 1 / 751}
    rows = []
    for trhd in (500, 1000, 2000):
        config = MirzaConfig.paper_config(trhd)
        mint = mitigation_energy_per_act(MINT_RFM_WINDOWS[trhd], 1.0)
        mirza = mitigation_energy_per_act(config.mint_window,
                                          escapes[trhd])
        rows.append([trhd, f"{mint:.3f} pJ", f"{mirza:.5f} pJ",
                     f"{mint / mirza:.0f}x"])
    rows.append(["SRAM power",
                 f"{100 * mirza_sram_power_fraction():.2f}% of chip",
                 "(paper ~0.25%)", ""])
    return format_table(
        ["TRHD", "MINT", "MIRZA", "reduction"],
        rows, title="Mitigation energy per activation "
                    "(paper escape probabilities)")


def _storage_comparison() -> str:
    """SRAM bytes per bank for each tracker design at TRHD=1000."""
    designs = [
        ("MIRZA", MirzaConfig.paper_config(1000).storage_bytes_per_bank),
        ("MINT (+DMQ)", mint_storage_bytes_per_bank()),
        ("PrIDE", pride_storage_bytes_per_bank()),
        ("TRR (insecure)", trr_storage_bytes_per_bank()),
        ("Hydra (SRAM part)", hydra_storage_bytes_per_bank()),
        ("Mithril 2K", mithril_storage_bytes_per_bank()),
        # ProTRR keeps the same 2K x 28-bit CAM as Mithril.
        ("ProTRR 2K", mithril_storage_bytes_per_bank()),
    ]
    rows = [[name, f"{size:,.0f} B"] for name, size in designs]
    return format_table(
        ["Tracker", "SRAM/bank"], rows,
        title="Tracker storage at TRHD=1000")


def _reduce(cells: framework.Cells) -> Dict[str, str]:
    return {
        "lifetime": _lifetime_table(),
        "energy": _energy_table(),
        "storage": _storage_comparison(),
    }


def _render(tables: Dict[str, str]) -> str:
    return "\n\n".join([tables["lifetime"], tables["energy"],
                        tables["storage"]])


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="extras",
    title="Extras",
    description="Lifetime / energy / storage extensions",
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
))
