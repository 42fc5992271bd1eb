"""Refresh Management: proactive per-bank activation budgeting.

DDR5's RFM (Section II-F): the controller keeps one counter per bank,
incremented on every activation to that bank.  When a counter reaches
the *Bank Activation Threshold* (BAT), the controller issues an RFM to
that bank -- stalling it like a refresh -- and resets the counter.  REF
commands do **not** decrement the counter (BAT-RFM variant), so RFM time
never cannibalises demand refresh.

RFM is proactive: it fires at the configured cadence whether or not the
device has anything worth mitigating, which is exactly the inefficiency
MIRZA's reactive ALERTs eliminate.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs import metrics as _metrics


class RfmEngine:
    """Per-bank BAT counters issuing RFM every ``bat`` activations."""

    def __init__(self, num_banks: int, bat: Optional[int],
                 rfm_duration: int) -> None:
        """``bat = None`` disables RFM entirely."""
        if bat is not None and bat < 1:
            raise ValueError("BAT must be >= 1 (or None to disable)")
        self.num_banks = num_banks
        self.bat = bat
        self.rfm_duration = rfm_duration
        self._counters: List[int] = [0] * num_banks
        self.rfms_issued = 0
        reg = _metrics._ACTIVE
        self._m_issued = reg.counter("rfm.issued") \
            if reg is not None and bat is not None else None

    def on_activate(self, bank: int) -> bool:
        """Count one ACT; return True when an RFM is due for ``bank``."""
        if self.bat is None:
            return False
        self._counters[bank] += 1
        if self._counters[bank] >= self.bat:
            self._counters[bank] = 0
            self.rfms_issued += 1
            counter = self._m_issued
            if counter is not None:
                counter.value += 1
            return True
        return False

    def counter(self, bank: int) -> int:
        """Current BAT counter value for ``bank``."""
        return self._counters[bank]
