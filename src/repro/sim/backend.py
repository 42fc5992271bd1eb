"""The simulation kernel's one entry point.

:func:`repro.sim.runner.simulate` and its siblings hand every built
:class:`MultiCoreSystem` to :meth:`EventBackend.run`, which drives the
window with per-command dispatch: every ACT updates bank, oracle and
tracker state immediately, and the device re-polls the activated
bank's ALERT request.

The class and the two lookups below are the names the report-level
benchmark (``reportbench/instrument.py``) wraps to count kernel runs
apart from calibration probes, which call ``MultiCoreSystem.run``
directly.
"""

from __future__ import annotations

from typing import List

from repro.cpu.system import MultiCoreSystem, SimResult


class EventBackend:
    """Per-command dispatch: the fully-interleaved kernel."""

    name = "event"

    def run(self, system: MultiCoreSystem, window_ps: int) -> SimResult:
        """Delegate straight to :meth:`MultiCoreSystem.run`."""
        return system.run(window_ps)


KERNEL = EventBackend()
"""The kernel every simulate entry point runs."""


def available_backends() -> List[str]:
    """Names of the kernels (only ``event``)."""
    return [KERNEL.name]


def backend_by_name(name: str) -> EventBackend:
    """The kernel called ``name``; KeyError names the one that exists."""
    if name != KERNEL.name:
        raise KeyError(f"unknown kernel backend {name!r}; "
                       f"known: {KERNEL.name}")
    return KERNEL
