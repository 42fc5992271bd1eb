"""Figure 1(c): the headline numbers.

MIRZA needs ~28x fewer mitigations than MINT (Table VIII at TRHD=1K)
and ~45x less area than PRAC (Table X at TRHD=1K), at 196 bytes of
SRAM per bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MirzaConfig
from repro.experiments import framework
from repro.experiments.framework import Check, Claim, near
from repro.sim.stats import format_table

PAPER = {"mitigation_reduction": 28.5, "area_reduction": 45.0,
         "sram_bytes": 196}


@dataclass
class Fig1Summary:
    mitigation_reduction: float
    area_reduction: float
    sram_bytes_per_bank: float


def _reduce(cells: framework.Cells) -> Fig1Summary:
    overhead = [r for r in cells.dep("table8") if r.trhd == 1000][0]
    area = [r for r in cells.dep("table10") if r.trhd == 1000][0]
    config = MirzaConfig.paper_config(1000)
    return Fig1Summary(
        mitigation_reduction=overhead.reduction,
        area_reduction=area.area_ratio,
        sram_bytes_per_bank=config.storage_bytes_per_bank,
    )


def _render(summary: Fig1Summary) -> str:
    rows = [
        ["mitigations vs MINT",
         f"{summary.mitigation_reduction:.1f}x fewer",
         f"{PAPER['mitigation_reduction']}x"],
        ["area vs PRAC", f"{summary.area_reduction:.1f}x lower",
         f"{PAPER['area_reduction']}x"],
        ["SRAM per bank", f"{summary.sram_bytes_per_bank:.0f} B",
         f"{PAPER['sram_bytes']} B"],
    ]
    return format_table(["Metric", "measured", "paper"], rows,
                        title="Figure 1(c): headline summary "
                              "(TRHD=1K)")


EXPERIMENT = framework.register_experiment(framework.Experiment(
    name="fig1",
    title="Figure 1c",
    description="Headline summary",
    paper=PAPER,
    grid=lambda ctx: (),
    reduce=_reduce,
    render=_render,
    needs=("table8", "table10"),
    checks=(
        Check("mitigation reduction x", PAPER["mitigation_reduction"],
              lambda r: r.mitigation_reduction, rel_tol=0.9),
        Check("area reduction x", PAPER["area_reduction"],
              lambda r: r.area_reduction, rel_tol=0.5),
        Check("SRAM bytes per bank", PAPER["sram_bytes"],
              lambda r: r.sram_bytes_per_bank, rel_tol=0.1),
    ),
    claims=(
        Claim("MIRZA needs over 8x fewer mitigations than MINT",
              lambda r: r.mitigation_reduction > 8),
        Claim("PRAC needs 45x MIRZA's area, within 5%",
              lambda r: near(r.area_reduction, PAPER["area_reduction"],
                             rel_tol=0.05)),
        Claim("MIRZA needs exactly 196 B of SRAM per bank",
              lambda r: r.sram_bytes_per_bank == PAPER["sram_bytes"]),
    ),
))
