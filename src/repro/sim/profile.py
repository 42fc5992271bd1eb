"""Public home of the kernel profiling layer.

The implementation lives in :mod:`repro._profile` so the hot modules
(``repro.mc.controller``, ``repro.dram.device``, ``repro.cpu.core``)
can import it without pulling in :mod:`repro.sim`'s package
``__init__`` -- which imports the runner, which imports those same hot
modules.  Import from here in user code::

    from repro.sim.profile import profiling

Profiles aggregate across a whole session, including process-pool
fan-out: :meth:`repro.sim.session.SimSession.run_many` ships each
worker's :class:`KernelProfile` back as a dict and merges it into the
parent's active profile, so ``--profile`` combined with ``--jobs N``
reports totals over every process rather than the parent alone.
"""

from __future__ import annotations

from repro._profile import (
    PHASES,
    KernelProfile,
    active,
    install,
    perf_counter,
    profiling,
)

__all__ = [
    "KernelProfile",
    "PHASES",
    "active",
    "install",
    "perf_counter",
    "profiling",
]
