"""Poll-every-tracker ALERT line: the reference.

It is the plainest correct form of a device's ALERT line: ask every
tracker that can alert whether it wants ALERT now.  The controller
reads the line after every ACT, so this costs one poll per alertable
bank per ACT; :class:`~repro.dram.device.DramDevice` keeps the line
incrementally instead, and this serves only as the oracle that
``test_alert_line.py`` compares it to, operation by operation.
"""

from repro.dram.device import DramDevice
from repro.mitigations.base import BankTracker


class PollEveryTrackerDevice(DramDevice):
    """A device whose ALERT line polls every alertable tracker."""

    def alert_pending(self) -> bool:
        for tracker in self.trackers:
            if type(tracker).wants_alert is not BankTracker.wants_alert \
                    and tracker.wants_alert():
                return True
        return False
