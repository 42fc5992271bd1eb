"""The unprotected baseline: observes nothing, mitigates nothing."""

from __future__ import annotations

from repro.mitigations.base import BankTracker


class NoMitigation(BankTracker):
    """No Rowhammer protection at all (the paper's baseline system)."""

    name = "none"

    def on_activate(self, row: int, now_ps: int) -> None:
        pass
