"""DDR5 DRAM substrate: banks, address/row mappings, refresh, timing.

This package is the simulator's ground-truth model of the DRAM device:

- :mod:`repro.dram.mapping`  -- the Sequential / Strided row-to-subarray
  mappings of Section IV-D and the per-tenant address spaces.
- :mod:`repro.dram.bank`     -- per-bank state plus the per-row activation
  oracle used to *verify* (not implement) Rowhammer security.
- :mod:`repro.dram.refresh`  -- the tREFI refresh sweep and RefPtr tracking.
- :mod:`repro.dram.timing`   -- bank-level DDR5 timing constraint tracking.
- :mod:`repro.dram.device`   -- the assembled multi-bank device.
"""

from repro.dram.bank import Bank, RowActivationOracle
from repro.dram.device import DramDevice
from repro.dram.mapping import (
    RowToSubarrayMapping,
    SequentialR2SA,
    StridedR2SA,
)
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import BankTiming

__all__ = [
    "Bank",
    "BankTiming",
    "DramDevice",
    "RefreshScheduler",
    "RowActivationOracle",
    "RowToSubarrayMapping",
    "SequentialR2SA",
    "StridedR2SA",
]
