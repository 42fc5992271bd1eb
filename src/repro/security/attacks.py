"""Attack verification harness: tracker vs ground-truth oracle.

:class:`SingleBankHarness` drives a bare activation stream (no timing
model, one logical ACT per tRC) into one bank, its tracker, and the
ground-truth row oracle, while modelling the pieces of the protocol an
attacker can exploit:

- demand refresh every ``acts_per_ref`` activations (the REF sweep the
  RCT safe-reset synchronises with);
- the ABO prologue: after a tracker asserts ALERT, the attacker lands
  ``acts_during_prologue`` more activations before the stall, and one
  mandatory epilogue ACT before the next ALERT (Phase D / Figure 10);
  each ALERT then serves ``rfms_per_alert`` mitigation slots;
- proactive REF-slot mitigations for REF-paced trackers.

Security tests drive adversarial streams through the harness and assert
on ``max_unmitigated`` -- the oracle's worst per-row count -- against
the configured Rowhammer threshold.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dram.bank import Bank
from repro.dram.mapping import RowToSubarrayMapping
from repro.dram.refresh import RefreshScheduler
from repro.mitigations.base import (
    BankTracker,
    MitigationSlotSource,
    can_alert,
)
from repro.params import SystemConfig
from repro.security.analysis import acts_per_ref_interval


class SingleBankHarness:
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
            # Mapping-aware trackers (MIRZA) must see the same
            # row-to-subarray placement as the bank and the refresh
            # sweep -- otherwise oracle resets and RCT resets drift
            # apart and the measurement is meaningless.
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
        self.run((row,))

    def run(self, stream: Iterable[int]) -> None:
        """Feed a whole activation stream through the harness.

        The harness's one per-ACT loop.  The bank and oracle
        bookkeeping, the REF cadence and the ALERT countdown live in
        locals for the run and are written back in ``finally``, so a
        stream that raises part-way (a row outside the bank) leaves the
        harness as its last ACT left it.  ALERT is polled only for a
        tracker that can raise it (:func:`can_alert`, the rule the
        device's ``alertable_banks`` uses), and only once the epilogue
        ACT has landed.
        """
        bank = self.bank
        oracle = bank.oracle
        counts = oracle._counts
        count_of = counts.get
        rows_per_bank = bank._rows_per_bank
        tracker = self.tracker
        on_activate = tracker.on_activate
        wants_alert = tracker.wants_alert if can_alert(tracker) else None
        t_rc = self.config.timings.tRC
        acts_per_ref = self.acts_per_ref
        epilogue = self.abo.epilogue_acts
        prologue = self.abo.acts_during_prologue
        acts = self.acts
        # REF fires once `acts` reaches `ref_due`; ALERT may assert
        # once `acts` passes `poll_after`.
        ref_due = acts - self._acts_since_ref + acts_per_ref
        poll_after = acts - self._acts_since_alert + epilogue
        countdown = self._alert_countdown
        max_seen, max_row = oracle._max_seen, oracle._max_row
        open_row = bank.open_row
        banked = 0
        try:
            for row in stream:
                if not 0 <= row < rows_per_bank:
                    bank.activate(row)  # raises: the row is not in the bank
                open_row = row
                banked += 1
                count = count_of(row, 0) + 1
                counts[row] = count
                if count > max_seen:
                    max_seen, max_row = count, row
                now = acts * t_rc
                on_activate(row, now)
                acts += 1
                if acts >= ref_due:
                    ref_due = acts + acts_per_ref
                    self._do_ref(now)
                if countdown is not None:
                    countdown -= 1
                    if countdown <= 0:
                        countdown = None
                        poll_after = acts + epilogue
                        self._service_alert(now)
                elif (wants_alert is not None and acts > poll_after
                      and wants_alert()):
                    # ALERT asserts now; the attacker still lands the
                    # prologue activations before the stall begins.
                    countdown = prologue
        finally:
            self.acts = acts
            self._acts_since_ref = acts - (ref_due - acts_per_ref)
            self._acts_since_alert = acts - (poll_after - epilogue)
            self._alert_countdown = countdown
            oracle._max_seen, oracle._max_row = max_seen, max_row
            bank.open_row = open_row
            bank.total_activations += banked
            if bank._m_acts is not None:
                bank._m_acts.value += banked

    def flush_alert(self) -> None:
        """Service a pending ALERT without further attacker ACTs."""
        if self._alert_countdown is not None or self.tracker.wants_alert():
            self._alert_countdown = None
            self._acts_since_alert = 0
            self._service_alert(self._now())

    # ------------------------------------------------------------------
    def _do_ref(self, now: int) -> None:
        slice_ = self.refresh.advance()
        self.bank.refresh(slice_)
        self.tracker.on_ref_slice(slice_, now)
        for row in self.tracker.on_mitigation_slot(
                now, MitigationSlotSource.REF):
            self.bank.mitigate(row, self.blast_radius)
            self.mitigations += 1

    def _service_alert(self, now: int) -> None:
        self.alerts += 1
        for _ in range(self.abo.rfms_per_alert):
            for row in self.tracker.on_mitigation_slot(
                    now, MitigationSlotSource.ALERT):
                self.bank.mitigate(row, self.blast_radius)
                self.mitigations += 1

    # ------------------------------------------------------------------
    @property
    def max_unmitigated(self) -> int:
        """Worst per-row unmitigated ACT count ever observed (oracle)."""
        return self.bank.oracle.max_unmitigated

    def attack_succeeded(self, threshold: int) -> bool:
        """Ground truth: did any row ever exceed ``threshold``?"""
        return self.bank.oracle.attack_succeeded(threshold)
