"""Rowhammer mitigation trackers: MIRZA's baselines and building blocks.

Every tracker implements :class:`repro.mitigations.base.BankTracker` and is
instantiated once per bank by :class:`repro.dram.device.DramDevice`.

- :mod:`repro.mitigations.none`        -- unprotected baseline.
- :mod:`repro.mitigations.trr`         -- DDR4-style Targeted Row Refresh
  (few entries, *insecure* -- the security tests break it).
- :mod:`repro.mitigations.para`        -- classic probabilistic refresh.
- :mod:`repro.mitigations.mithril`     -- Misra-Gries counter tracker.
- :mod:`repro.mitigations.mint_rfm`    -- proactive MINT (REF- or RFM-paced).
- :mod:`repro.mitigations.prac`        -- PRAC + ABO (MOAT-style).
- :mod:`repro.mitigations.naive_mirza` -- MINT + ABO + queue, no filtering
  (Section IV-A); a thin wrapper over the full MIRZA engine with FTH = 0.

The full MIRZA engine lives in :mod:`repro.core.mirza` because it is the
paper's primary contribution.
"""

from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import ParaTracker
from repro.mitigations.prac import PracTracker
from repro.mitigations.trr import TrrTracker


def __getattr__(name):
    # NaiveMirzaTracker builds on repro.core (which in turn imports this
    # package for the tracker interface); loading it lazily breaks the
    # import cycle without hiding it from the public API.
    if name == "NaiveMirzaTracker":
        from repro.mitigations.naive_mirza import NaiveMirzaTracker
        return NaiveMirzaTracker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BankTracker",
    "MintTracker",
    "MithrilTracker",
    "MitigationSlotSource",
    "NaiveMirzaTracker",
    "NoMitigation",
    "ParaTracker",
    "PracTracker",
    "TrrTracker",
]
