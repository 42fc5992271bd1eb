"""Per-ACT reference for :class:`repro.security.attacks.SingleBankHarness`.

The harness's previous per-ACT body, kept for lockstep tests: every
activation goes through :meth:`ReferenceHarness.activate`, which calls
the bank (range check, open row, oracle), the tracker hook and the
REF/ALERT bookkeeping one attribute at a time, and polls
``wants_alert`` on every ACT whatever the tracker.  The harness keeps
all of that in locals for a whole run; ``test_harness_lockstep.py``
drives both through the same seeded streams and compares their state
after every step.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dram.bank import Bank
from repro.dram.mapping import RowToSubarrayMapping
from repro.dram.refresh import RefreshScheduler
from repro.mitigations.base import BankTracker, MitigationSlotSource
from repro.params import SystemConfig
from repro.security.analysis import acts_per_ref_interval


class ReferenceHarness:
    """ACT-granularity security test bench for one bank + tracker."""

    def __init__(self, tracker: BankTracker,
                 config: SystemConfig = SystemConfig(),
                 mapping: Optional[RowToSubarrayMapping] = None,
                 refs_per_window: Optional[int] = None,
                 blast_radius: int = 2,
                 acts_per_ref: Optional[int] = None) -> None:
        self.tracker = tracker
        self.config = config
        if mapping is None:
            mapping = getattr(tracker, "mapping", None)
        self.bank = Bank(0, config.geometry, mapping)
        self.refresh = RefreshScheduler(config.geometry, self.bank.mapping,
                                        refs_per_window)
        self.blast_radius = blast_radius
        self.acts_per_ref = (acts_per_ref if acts_per_ref is not None
                             else acts_per_ref_interval(config.timings))
        self.abo = config.abo
        self.acts = 0
        self.alerts = 0
        self.mitigations = 0
        self._acts_since_ref = 0
        self._acts_since_alert = 1
        self._alert_countdown: Optional[int] = None

    # ------------------------------------------------------------------
    def _now(self) -> int:
        return self.acts * self.config.timings.tRC

    def activate(self, row: int) -> None:
        """One attacker-controlled activation."""
        now = self._now()
        self.bank.activate(row)
        self.tracker.on_activate(row, now)
        self.acts += 1
        self._acts_since_alert += 1
        self._acts_since_ref += 1
        if self._acts_since_ref >= self.acts_per_ref:
            self._do_ref(now)
        if self._alert_countdown is not None:
            self._alert_countdown -= 1
            if self._alert_countdown <= 0:
                self._service_alert(now)
        elif (self.tracker.wants_alert()
              and self._acts_since_alert > self.abo.epilogue_acts):
            # ALERT asserts now; the attacker still lands the prologue
            # activations before the stall begins.
            self._alert_countdown = self.abo.acts_during_prologue

    def run(self, stream: Iterable[int]) -> None:
        """Feed a whole activation stream through the harness."""
        for row in stream:
            self.activate(row)

    def flush_alert(self) -> None:
        """Service a pending ALERT without further attacker ACTs."""
        if self._alert_countdown is not None or self.tracker.wants_alert():
            self._service_alert(self._now())

    # ------------------------------------------------------------------
    def _do_ref(self, now: int) -> None:
        self._acts_since_ref = 0
        slice_ = self.refresh.advance()
        self.bank.refresh(slice_)
        self.tracker.on_ref_slice(slice_, now)
        for row in self.tracker.on_mitigation_slot(
                now, MitigationSlotSource.REF):
            self.bank.mitigate(row, self.blast_radius)
            self.mitigations += 1

    def _service_alert(self, now: int) -> None:
        self._alert_countdown = None
        self._acts_since_alert = 0
        self.alerts += 1
        for _ in range(self.abo.rfms_per_alert):
            for row in self.tracker.on_mitigation_slot(
                    now, MitigationSlotSource.ALERT):
                self.bank.mitigate(row, self.blast_radius)
                self.mitigations += 1
