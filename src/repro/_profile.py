"""Opt-in kernel profiling: per-phase time and throughput counters.

The simulation kernel is pure Python, so observability must be nearly
free when off and cheap when on.  This module keeps one module-level
:class:`KernelProfile` slot (``_ACTIVE``); the hot paths (the system
run loop, the memory controller's refresh pump, the core's trace
refill, the device's tracker dispatch) read that slot once per
coarse-grained event and accumulate wall time into named phases:

``trace``
    Generating workload trace chunks (synthetic RNG + tuple building).
``serve``
    Total time inside ``MemoryController.serve`` -- command scheduling,
    timing fixpoints, bus booking.  Includes the two sub-phases below.
``refresh``
    Demand-refresh processing: REF blackouts, oracle sweeps, RCT reset
    (a subset of ``serve``).
``trackers``
    Per-activation mitigation-tracker bookkeeping (a subset of
    ``serve``).

Activation is explicit (:func:`profiling`) or environmental
(``REPRO_PROFILE=1`` plus :func:`maybe_profile_from_env`); the CLI's
``--profile`` flag routes through the former and prints
:meth:`KernelProfile.report` after the command finishes.  Profiles
merge across processes: a :class:`~repro.sim.session.SimSession`
wraps each pool worker's jobs in a fresh profile, ships it back as a
dict (:meth:`KernelProfile.to_dict`), and folds it into the parent's
active profile (:meth:`KernelProfile.merge`), so ``--profile`` with
``--jobs N`` reports whole-session numbers.

Example::

    from repro.sim.profile import profiling
    with profiling() as prof:
        simulate("tc", baseline_setup(), SimScale(512))
    print(prof.report())
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

PHASES = ("trace", "serve", "refresh", "trackers")


class KernelProfile:
    """Accumulated per-phase seconds and event counts for one session."""

    __slots__ = ("trace_s", "serve_s", "refresh_s", "trackers_s",
                 "wall_s", "requests", "activations", "refs",
                 "window_ps", "runs")

    def __init__(self) -> None:
        self.trace_s = 0.0
        self.serve_s = 0.0
        self.refresh_s = 0.0
        self.trackers_s = 0.0
        self.wall_s = 0.0
        self.requests = 0
        self.activations = 0
        self.refs = 0
        self.window_ps = 0
        self.runs = 0

    # ------------------------------------------------------------------
    # Accumulation (called from the hot paths, profile-active only)
    # ------------------------------------------------------------------
    def add_run(self, wall_s: float, window_ps: int, requests: int,
                activations: int) -> None:
        """Record one completed ``MultiCoreSystem.run`` window."""
        self.wall_s += wall_s
        self.window_ps += window_ps
        self.requests += requests
        self.activations += activations
        self.runs += 1

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able view of every counter (the pool return payload)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "KernelProfile":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        profile = cls()
        for name in cls.__slots__:
            if name in data:
                setattr(profile, name, data[name])
        return profile

    def merge(self, other: "KernelProfile | dict") -> None:
        """Fold another profile (or its dict form) into this one.

        Every field is additive, so merging is order-independent; a
        session can fold worker profiles in completion order.
        """
        data = other if isinstance(other, dict) else other.to_dict()
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + data.get(name, 0))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def requests_per_sec(self) -> float:
        """Served requests per wall-clock second across profiled runs."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def acts_per_sec(self) -> float:
        """Issued activations per wall-clock second."""
        return self.activations / self.wall_s if self.wall_s > 0 else 0.0

    def report(self) -> str:
        """Human-readable per-phase summary table."""
        lines = ["kernel profile"
                 f" ({self.runs} run{'s' if self.runs != 1 else ''},"
                 f" {self.wall_s:.2f}s simulated-kernel wall time)"]
        scheduling = max(0.0, self.serve_s - self.refresh_s
                         - self.trackers_s)
        rows = [
            ("trace generation", self.trace_s),
            ("controller scheduling", scheduling),
            ("demand refresh", self.refresh_s),
            ("mitigation trackers", self.trackers_s),
        ]
        wall = self.wall_s or 1.0
        for label, seconds in rows:
            lines.append(f"  {label:<22} {seconds:8.3f}s"
                         f"  ({100.0 * seconds / wall:5.1f}%)")
        lines.append(f"  {'requests':<22} {self.requests:>9}"
                     f"  ({self.requests_per_sec():,.0f}/s)")
        lines.append(f"  {'activations':<22} {self.activations:>9}"
                     f"  ({self.acts_per_sec():,.0f}/s)")
        lines.append(f"  {'REF commands':<22} {self.refs:>9}")
        if self.window_ps:
            ratio = self.window_ps / 1e12 / wall
            lines.append(f"  {'sim/wall time ratio':<22} {ratio:9.2e}")
        return "\n".join(lines)


_ACTIVE: Optional[KernelProfile] = None
"""The installed profile, or ``None`` (the no-profiling fast path).

Hot paths read this attribute directly -- one module-global load per
coarse event -- instead of calling :func:`active`.
"""


def active() -> Optional[KernelProfile]:
    """The currently-installed profile, if any."""
    return _ACTIVE


def enabled_by_env() -> bool:
    """True when ``REPRO_PROFILE`` asks for profiling."""
    return os.environ.get("REPRO_PROFILE", "").strip().lower() in (
        "1", "true", "yes", "on")


def install(profile: Optional[KernelProfile]) -> Optional[KernelProfile]:
    """Install ``profile`` as the active sink; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profile
    return previous


@contextmanager
def profiling(profile: Optional[KernelProfile] = None
              ) -> Iterator[KernelProfile]:
    """Scope a profile over a ``with`` block and yield it."""
    prof = profile if profile is not None else KernelProfile()
    previous = install(prof)
    try:
        yield prof
    finally:
        install(previous)


@contextmanager
def maybe_profile_from_env(force: bool = False) -> Iterator[
        Optional[KernelProfile]]:
    """Activate profiling when ``force`` or ``REPRO_PROFILE`` says so.

    Yields the profile (or ``None`` when disabled) so callers can print
    :meth:`KernelProfile.report` afterwards.
    """
    if not force and not enabled_by_env():
        yield None
        return
    with profiling() as prof:
        yield prof


__all__ = [
    "KernelProfile",
    "PHASES",
    "active",
    "enabled_by_env",
    "install",
    "maybe_profile_from_env",
    "perf_counter",
    "profiling",
]
