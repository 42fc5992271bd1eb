"""PRAC + ABO: per-row activation counters with reactive ALERT (MOAT).

PRAC extends the DRAM array with one counter per row, incremented on
every activation.  Following the MOAT design (ASPLOS 2025), the chip
asserts ALERT-Back-Off when any row's counter reaches an internal alert
threshold (``ETH``), and the mitigation phase of the ALERT refreshes
that row's victims and resets its counter.

Two costs, both captured by the reproduction:

- **area**: one ~10-bit DRAM counter per row
  (:mod:`repro.security.area`);
- **timing**: counter read-modify-write inflates tRP 14->36 ns and
  tRC 46->52 ns even when no ALERT ever fires -- use
  ``SystemConfig.with_prac_timings()`` when simulating a PRAC system;
  that inflation, not ALERTs, is the source of PRAC's 6.5% slowdown at
  the paper's thresholds (Section VII-B).

For TRHD >= 500, benign workloads essentially never reach ETH, so
PRAC+ABO performs almost no mitigations (Figure 11b shows ~0 ALERTs).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.obs import metrics as _metrics
from repro.params import AboTimings


def prac_alert_threshold(trhd: int, abo: AboTimings = AboTimings()) -> int:
    """Internal counter value at which the chip must assert ALERT.

    The ALERT must fire early enough that the ACTs landing during the
    ABO prologue/epilogue (Phase D) cannot push the row past the device
    threshold: ``ETH = TRHD - (2 * acts_between_alerts - 1)``.
    """
    margin = 2 * abo.acts_between_alerts - 1
    eth = trhd - margin
    if eth < 1:
        raise ValueError(f"TRHD={trhd} too low for the ABO protocol")
    return eth


class PracTracker(BankTracker):
    """Per-row counters asserting ALERT at the alert threshold."""

    name = "prac"

    def __init__(self, trhd: int, abo: AboTimings = AboTimings(),
                 alert_threshold: Optional[int] = None) -> None:
        self.trhd = trhd
        self.alert_threshold = (alert_threshold if alert_threshold
                                is not None
                                else prac_alert_threshold(trhd, abo))
        self._counters: Dict[int, int] = {}
        self._over_threshold: List[int] = []
        reg = _metrics._ACTIVE
        self._m_alert_rows = reg.counter("prac.alert_rows") \
            if reg is not None else None

    def on_activate(self, row: int, now_ps: int) -> None:
        count = self._counters.get(row, 0) + 1
        self._counters[row] = count
        if count == self.alert_threshold:
            self._over_threshold.append(row)
            counter = self._m_alert_rows
            if counter is not None:
                counter.value += 1

    def wants_alert(self) -> bool:
        return bool(self._over_threshold)

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        if source is MitigationSlotSource.REF or not self._over_threshold:
            return []
        row = self._over_threshold.pop(0)
        self._counters[row] = 0
        return [row]

    def on_ref_slice(self, slice_, now_ps: int) -> None:
        """Demand refresh resets the refreshed rows' counters."""
        slice_.reset_rows(self._counters)
