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

from typing import Dict, List, Optional, Sequence

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
        # Monotone upper bound on the largest counter ever reached; never
        # decremented on refresh/mitigation resets, so the slack derived
        # from it only ever *under*-estimates (which is the safe side).
        self._max_count = 0
        reg = _metrics._ACTIVE
        self._m_alert_rows = reg.counter("prac.alert_rows") \
            if reg is not None else None

    def on_activate(self, row: int, now_ps: int) -> None:
        count = self._counters.get(row, 0) + 1
        self._counters[row] = count
        if count > self._max_count:
            self._max_count = count
        if count == self.alert_threshold:
            self._over_threshold.append(row)
            counter = self._m_alert_rows
            if counter is not None:
                counter.value += 1

    def on_activates(self, rows: Sequence[int],
                     times: Sequence[int]) -> None:
        """Bulk counter updates over a deferred run of ACTs.

        Bit-identical to replaying :meth:`on_activate`: counters only
        accumulate between mitigation slots, so the order of increments
        within the run is immaterial and the over-threshold list gets the
        same rows in the same (arrival) order.
        """
        if type(self).on_activate is not PracTracker.on_activate:
            # A subclass (e.g. QPRAC) customises per-ACT behaviour; the
            # generic replay keeps its semantics.
            BankTracker.on_activates(self, rows, times)
            return
        counters = self._counters
        get = counters.get
        threshold = self.alert_threshold
        max_count = self._max_count
        over = self._over_threshold
        metric = self._m_alert_rows
        for row in rows:
            count = get(row, 0) + 1
            counters[row] = count
            if count > max_count:
                max_count = count
            if count == threshold:
                over.append(row)
                if metric is not None:
                    metric.value += 1
        self._max_count = max_count

    def wants_alert(self) -> bool:
        return bool(self._over_threshold)

    def alert_slack(self) -> int:
        """ACTs before any counter can reach the alert threshold.

        ``_max_count`` is a stale-high bound (resets never lower it), so
        ``threshold - _max_count`` can only under-estimate the true
        distance; the clamp to 1 covers the stale case where the bound
        exceeds every live counter.
        """
        if self._over_threshold:
            return 1
        slack = self.alert_threshold - self._max_count
        return slack if slack > 1 else 1

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

    def max_counter(self) -> int:
        """Largest per-row counter (used by tests and experiments)."""
        return max(self._counters.values(), default=0)

    def storage_bits(self) -> int:
        """PRAC counters live in the DRAM array, not SRAM: 0 SRAM bits.

        The (large) DRAM-array cost is accounted by
        :class:`repro.security.area.AreaModel`, matching the paper's
        framing of PRAC's overhead as array area rather than SRAM.
        """
        return 0
