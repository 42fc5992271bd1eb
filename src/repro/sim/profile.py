"""Public home of the kernel profiling layer.

The profile is one of the :mod:`repro.obs` sinks and lives in
:mod:`repro.obs.profile`, which the hot modules (``repro.mc.controller``,
``repro.dram.device``, ``repro.cpu.core``) import without pulling in
:mod:`repro.sim`'s package ``__init__`` -- which imports the runner,
which imports those same hot modules.  Import from here in user code::

    from repro.sim.profile import profiling

Profiles aggregate across a whole session, including process-pool
fan-out: :meth:`repro.sim.session.SimSession.run_many` ships each
worker's :class:`KernelProfile` back as a dict and merges it into the
parent's active profile, so ``--profile`` combined with ``--jobs N``
reports totals over every process rather than the parent alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import collecting
from repro.obs.profile import PHASES, KernelProfile


@contextmanager
def profiling() -> Iterator[KernelProfile]:
    """Scope a fresh :class:`KernelProfile` over a ``with`` block and
    yield it; on exit it folds into the enclosing profile, if any."""
    with collecting("profile") as col:
        yield col.profile


__all__ = [
    "KernelProfile",
    "PHASES",
    "profiling",
]
