"""The per-bank tracker interface every mitigation implements.

A tracker observes the activations of *its* bank and decides which
aggressor rows to mitigate and when.  Mitigation time arrives through
three channels (Figure 1a of the paper):

``REF``
    Proactive: the tracker borrows time from a demand refresh
    (*refresh cannibalisation*).  TRR and classic MINT work this way.
``RFM``
    Proactive: the memory controller counts activations per bank and
    stalls the bank at a fixed cadence (Section II-F).
``ALERT``
    Reactive: the tracker raises :meth:`BankTracker.wants_alert`, the
    device asserts ALERT, and the controller stalls the channel
    (Section II-G).  PRAC and MIRZA work this way.

Trackers never touch the DRAM arrays themselves; they *return* the rows
to mitigate and the :class:`repro.dram.device.DramDevice` performs the
victim refreshes (and informs the ground-truth oracle).
"""

from __future__ import annotations

import abc
import enum
from typing import List

from repro.dram.refresh import RefreshSlice


class MitigationSlotSource(enum.Enum):
    """Where the time for a mitigation slot came from."""

    REF = "ref"
    RFM = "rfm"
    ALERT = "alert"


class BankTracker(abc.ABC):
    """Abstract per-bank Rowhammer tracker."""

    __slots__ = ()

    name: str = "abstract"

    @abc.abstractmethod
    def on_activate(self, row: int, now_ps: int) -> None:
        """Observe an activation of ``row`` at time ``now_ps``."""

    def wants_alert(self) -> bool:
        """True if the tracker needs the channel to assert ALERT now.

        Proactive trackers never request ALERT; the default is ``False``.

        Contract: the answer depends only on the tracker's own state,
        and that state changes only through :meth:`on_activate`,
        :meth:`on_mitigation_slot` and :meth:`on_ref_slice`.  The device
        polls a bank only after one of those calls, so a tracker that
        breaks the contract raises or drops ALERT late.
        """
        return False

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        """Mitigation time is available; return aggressor rows to mitigate.

        Called once per REF (for REF-paced trackers), once per RFM, and
        once per ALERT service.  Returning an empty list wastes the slot.
        """
        return []

    def on_ref_slice(self, slice_: RefreshSlice, now_ps: int) -> None:
        """A REF refreshed ``slice_`` of this bank (for state resets)."""


def can_alert(tracker: BankTracker) -> bool:
    """True if ``tracker`` can ever request ALERT: its class overrides
    :meth:`BankTracker.wants_alert`, whose base answer is always
    ``False``.  Callers poll only such trackers."""
    return type(tracker).wants_alert is not BankTracker.wants_alert
