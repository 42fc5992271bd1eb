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

A shared pass (:func:`repro.sim.runner.simulate_shared`) is one kernel
run; it also counts the cells it served, the riders that diverged and
the tracker sets that carried them (a naive-MIRZA family of riders
shares one), and its riders' per-ACT tracker time lands in
``trackers``.

Counting passes (``CgfJob.execute``, the activation-level tier) run no
kernel; each records its ACTs, its filters, the RCT scans that
answered them and its wall seconds once, when it returns.
Calibration probes (``repro.sim.runner.calibrated_workload``) are not
kernel runs either: each key whose probes run records one calibration
and its wall seconds, in whichever process runs them.

The profile is one of the four :mod:`repro.obs` sinks: a
``collecting("profile")`` scope installs it (the CLI's ``--profile``
flag scopes one over the command and prints
:meth:`KernelProfile.report` after the command finishes), and it
crosses processes like the others: a pool worker collects the
profiles its jobs asked for and ships them back as dicts
(:meth:`KernelProfile.to_dict`), which the parent folds into its own
(:meth:`KernelProfile.merge`), so ``--profile`` with ``--jobs N``
reports whole-session numbers.  It lives in :mod:`repro.obs`, which
imports nothing from :mod:`repro.sim`, so the hot modules read its
slot without an import cycle; :mod:`repro.sim.profile` is its public
import path.

Example::

    from repro.sim.profile import profiling
    with profiling() as prof:
        simulate("tc", baseline_setup(), SimScale(512))
    print(prof.report())
"""

from __future__ import annotations

from typing import Optional

PHASES = ("trace", "serve", "refresh", "trackers")


class KernelProfile:
    """Accumulated per-phase seconds and event counts for one session."""

    __slots__ = ("trace_s", "serve_s", "refresh_s", "trackers_s",
                 "wall_s", "requests", "activations", "refs",
                 "window_ps", "runs", "counting_passes", "counting_acts",
                 "counting_filters", "counting_scans", "counting_s",
                 "calibrations", "calibration_s",
                 "shared_passes", "riders", "riders_diverged",
                 "rider_sets")

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
        self.counting_passes = 0
        self.counting_acts = 0
        self.counting_filters = 0
        self.counting_scans = 0
        self.counting_s = 0.0
        self.calibrations = 0
        self.calibration_s = 0.0
        self.shared_passes = 0
        self.riders = 0
        self.riders_diverged = 0
        self.rider_sets = 0

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

    def add_counting_pass(self, acts: int, filters: int, scans: int,
                          wall_s: float) -> None:
        """Record one activation-counting pass over a row stream: its
        ``filters`` answered by ``scans`` RCT scans (one per mapping
        and region count)."""
        self.counting_passes += 1
        self.counting_acts += acts
        self.counting_filters += filters
        self.counting_scans += scans
        self.counting_s += wall_s

    def add_shared_pass(self, served: int, diverged: int,
                        sets: int) -> None:
        """Record one shared baseline pass: ``served`` cells read off it,
        ``diverged`` riders left to run on their own, and the ``sets``
        of trackers that carried them (one per naive-MIRZA family, one
        per other rider)."""
        self.shared_passes += 1
        self.riders += served
        self.riders_diverged += diverged
        self.rider_sets += sets

    def add_calibration(self, wall_s: float) -> None:
        """Record the probe windows of one calibrated workload key."""
        self.calibrations += 1
        self.calibration_s += wall_s

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able view of every counter (the pool return payload)."""
        return {name: getattr(self, name) for name in self.__slots__}

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
        if self.counting_passes:
            rate = (self.counting_acts / self.counting_s
                    if self.counting_s > 0 else 0.0)
            lines.append(f"  {'counting passes':<22} "
                         f"{self.counting_passes:>9}  "
                         f"{self.counting_acts:,} ACTs, "
                         f"{self.counting_filters} filters in "
                         f"{self.counting_scans} scans, in "
                         f"{self.counting_s:.3f}s ({rate:,.0f}/s)")
        if self.shared_passes:
            lines.append(f"  {'shared passes':<22} "
                         f"{self.shared_passes:>9}  {self.riders} "
                         f"riders served, {self.riders_diverged} "
                         f"diverged, "
                         f"{self.riders + self.riders_diverged} riders "
                         f"on {self.rider_sets} trackers")
        if self.calibrations:
            lines.append(f"  {'calibration':<22} "
                         f"{self.calibrations:>9}  keys probed in "
                         f"{self.calibration_s:.3f}s")
        return "\n".join(lines)


_ACTIVE: Optional[KernelProfile] = None
"""The installed profile, or ``None`` (the no-profiling fast path).

Hot paths read this attribute directly -- one module-global load per
coarse event; :func:`repro.obs.collecting` installs it.
"""
