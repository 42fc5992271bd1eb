"""Storage and silicon-area accounting (Tables VII, X, XII).

The only pricing of tracker SRAM in the package: the paper tables and
the Extras storage table read these closed forms.

The paper compares tracker areas with a standard cell-area model
(Section VIII-A): a DRAM cell costs ``6 F^2`` and an SRAM cell
``120 F^2`` where ``F`` is the feature size.  PRAC stores one counter
per row *in the DRAM array*; MIRZA stores one counter per region in
SRAM.  Despite SRAM cells being 20x larger, tracking 1024x fewer
counters wins by ~45x at TRHD = 1K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.params import DramGeometry

DRAM_CELL_AREA_F2 = 6.0
SRAM_CELL_AREA_F2 = 120.0

MIRZA_QUEUE_OVERHEAD_BYTES = 20
"""Per-bank bytes for MIRZA-Q (4 entries), the RRC register, and MINT
state; constant across configurations (Table VII's SRAM/Bank column is
``regions * counter_bits / 8 + 20``)."""


def rct_counter_bits(fth: int) -> int:
    """Bits per RCT counter: must hold the saturation value FTH + 1."""
    return max(1, (fth + 1).bit_length())


def mirza_storage_bytes_per_bank(num_regions: int, fth: int) -> float:
    """Total MIRZA SRAM per bank in bytes (Table VII's last column)."""
    return (num_regions * rct_counter_bits(fth)) / 8.0 \
        + MIRZA_QUEUE_OVERHEAD_BYTES


def prac_counter_bits_for_trhd(trhd: int) -> int:
    """Bits per PRAC row counter needed to count up to ``trhd``."""
    if trhd < 1:
        raise ValueError("trhd must be >= 1")
    return max(1, math.ceil(math.log2(trhd)))


def trr_storage_bytes_per_bank(entries: int = 28,
                               bytes_per_entry: int = 3) -> int:
    """DDR4 TRR tracker storage (Table XII: 28 x 3B = 84 bytes)."""
    return entries * bytes_per_entry


def mint_storage_bytes_per_bank() -> int:
    """MINT with the Delayed Mitigation Queue (Table XII: 20 bytes)."""
    return 20


def mithril_storage_bytes_per_bank(entries: int = 2048,
                                   bits_per_entry: int = 28) -> float:
    """Mithril CAM storage (Section VIII-A: 2K x 28b = 7KB per bank)."""
    return entries * bits_per_entry / 8.0


def pride_storage_bytes_per_bank() -> float:
    """PrIDE's per-bank FIFO (PrIDE, ISCA 2024): 4 entries of a 17-bit
    row id plus 2-bit head and tail pointers, 72 bits = 9 bytes."""
    return (4 * 17 + 2 * 2) / 8.0


def hydra_storage_bytes_per_bank() -> float:
    """Hydra's SRAM per bank (Hydra, ISCA 2022): a Group Count Table of
    1K 8-bit counters (128-row groups, group threshold 200) plus a
    64-entry Row Count Cache of a 17-bit row id and a 9-bit count
    (mitigation threshold 400), 9,856 bits = 1,232 bytes.  The per-row
    counts live in DRAM."""
    return (1024 * 8 + 64 * (17 + 9)) / 8.0


@dataclass(frozen=True)
class AreaModel:
    """Relative silicon area of MIRZA vs PRAC, per subarray (Table X)."""

    geometry: DramGeometry = DramGeometry()
    dram_cell_f2: float = DRAM_CELL_AREA_F2
    sram_cell_f2: float = SRAM_CELL_AREA_F2

    def mirza_bits_per_subarray(self, num_regions: int, fth: int) -> int:
        """RCT bits landing on one subarray's worth of rows."""
        regions_per_subarray = max(
            1, num_regions // self.geometry.subarrays_per_bank)
        return regions_per_subarray * rct_counter_bits(fth)

    def mirza_area_per_subarray(self, num_regions: int, fth: int) -> float:
        """MIRZA tracking area per subarray in units of F^2."""
        return self.mirza_bits_per_subarray(num_regions, fth) \
            * self.sram_cell_f2

    def prac_bits_per_subarray(self, trhd: int) -> int:
        """PRAC counter bits per subarray: one counter per row."""
        return prac_counter_bits_for_trhd(trhd) \
            * self.geometry.rows_per_subarray

    def prac_area_per_subarray(self, trhd: int) -> float:
        """PRAC counter area per subarray in units of F^2."""
        return self.prac_bits_per_subarray(trhd) * self.dram_cell_f2

    def prac_to_mirza_ratio(self, trhd: int, num_regions: int,
                            fth: int) -> float:
        """How much more area PRAC needs than MIRZA (45x at TRHD=1K)."""
        return self.prac_area_per_subarray(trhd) \
            / self.mirza_area_per_subarray(num_regions, fth)
