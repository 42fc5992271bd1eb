"""The unprotected baseline: observes nothing, mitigates nothing."""

from __future__ import annotations

from typing import Sequence

from repro.mitigations.base import BankTracker


class NoMitigation(BankTracker):
    """No Rowhammer protection at all (the paper's baseline system)."""

    name = "none"

    def on_activate(self, row: int, now_ps: int) -> None:
        pass

    def on_activates(self, rows: Sequence[int],
                     times: Sequence[int]) -> None:
        """A whole run of nothing: skip the per-ACT replay loop."""

    def storage_bits(self) -> int:
        return 0
