"""Kernel backends: how one simulated window is actually executed.

The timing model is a single sequential command stream, but the *device
bookkeeping* hanging off it (per-bank trackers, ground-truth oracles)
does not have to run in lock-step with it.  This module makes that
choice a first-class API:

``event``
    Per-command dispatch: every ACT updates bank, oracle, and tracker
    state immediately, and the device re-polls the activated bank's
    ALERT request.

``array``
    Chunked array-at-a-time execution: ACTs are buffered per bank as
    flat ``(row, ts)`` arrays and applied in bulk at the next
    timing-relevant event (REF / RFM / DRFM / ALERT service / RowPress
    accounting / end of window).  Between those events, each alertable
    tracker publishes an :meth:`~repro.mitigations.base.BankTracker.
    alert_slack` lower bound on how many ACTs must pass before its
    ALERT line can rise, so a bank's tracker is updated and re-polled
    once per slack horizon instead of once per ACT.  Trackers without
    an exact slack bound fall back to a slack of one -- per-ACT
    stepping, i.e. exactly the event path's behaviour -- so the fast
    path is *provably bit-identical* (the golden-results suite pins it).

Selection is resolved in priority order: an explicit ``backend=``
argument to :func:`repro.sim.runner.simulate`, then the
``REPRO_KERNEL_BACKEND`` environment knob (CLI flag ``--backend`` maps
onto it), then the ``event`` default.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Protocol, Sequence, Union, \
    runtime_checkable

from repro import _env, _profile
from repro.cpu.system import MultiCoreSystem, SimResult
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.dram.device import DramDevice
from repro.dram.refresh import RefreshSlice
from repro.mitigations.base import UNBOUNDED_SLACK


@runtime_checkable
class KernelBackend(Protocol):
    """The contract a kernel backend implements.

    A backend receives a fully-built :class:`MultiCoreSystem` and a
    window length and must return the same :class:`SimResult` the event
    backend would -- backends may reorganise *bookkeeping*, never
    *timing*.
    """

    name: str
    """Registry name ("event", "array", ...)."""

    def run(self, system: MultiCoreSystem, window_ps: int) -> SimResult:
        """Execute one simulated window over ``system``."""
        ...


class EventBackend:
    """Per-command dispatch: the classic fully-interleaved kernel."""

    name = "event"

    def run(self, system: MultiCoreSystem, window_ps: int) -> SimResult:
        """Delegate straight to :meth:`MultiCoreSystem.run`."""
        return system.run(window_ps)


FLUSH_RUN_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                    2048, 4096)
"""Buckets of the ``backend.flush_run_len`` histogram.  Power-of-two
edges span single-ACT flushes up to whole-window runs, so the recorded
distribution shows how far each flush amortises its per-run bookkeeping
(benign runs are short; attack runs between ALERTs are long)."""


class _BatchingDevice:
    """Drop-in :class:`DramDevice` facade that defers ACT bookkeeping.

    Installed over each real device by :class:`ArrayBackend`.  ACTs are
    buffered per bank; any operation whose outcome could depend on
    up-to-date bank/tracker state (REF, RFM, DRFM, ALERT service,
    RowPress accounting) first lands the affected banks' buffers via
    :meth:`DramDevice.apply_activations`, so the real device always
    observes the same per-bank event order as under the event backend.

    The ALERT line is the real device's: it re-polls a bank whenever it
    lands that bank's run or gives it a mitigation slot, so
    ``alert_pending`` reads :attr:`DramDevice.alerting_banks`.  What
    the facade adds is when to land: each alertable bank counts down
    its tracker's ``alert_slack`` and lands its run when the countdown
    expires, so the line can never rise while ACTs sit in a buffer.
    """

    __slots__ = ("_real", "_rows", "_times", "_countdown", "banks",
                 "trackers", "stats", "config", "mapping", "refresh",
                 "subch", "num_banks", "blast_radius", "alertable_banks",
                 "alerting_banks", "_flush_hist", "_trace_buf")

    def __init__(self, real: DramDevice) -> None:
        self._real = real
        # Observability prefetch (the usual one-None-check-when-off
        # pattern): flush-run lengths feed a histogram, and each flush
        # lands as a FLUSH window on the bank's kernel trace lane.
        registry = _obs_metrics._ACTIVE
        self._flush_hist = registry.histogram(
            "backend.flush_run_len", FLUSH_RUN_BOUNDS) \
            if registry is not None else None
        self._trace_buf = _obs_trace._ACTIVE
        # Plain-attribute reads MCs and experiments perform are served
        # directly from the real device's objects.
        self.banks = real.banks
        self.trackers = real.trackers
        self.stats = real.stats
        self.config = real.config
        self.mapping = real.mapping
        self.refresh = real.refresh
        self.subch = real.subch
        self.num_banks = real.num_banks
        self.blast_radius = real.blast_radius
        self.alertable_banks = real.alertable_banks
        self.alerting_banks = real.alerting_banks
        n = real.num_banks
        self._rows: List[List[int]] = [[] for _ in range(n)]
        self._times: List[List[int]] = [[] for _ in range(n)]
        self._countdown: List[int] = [UNBOUNDED_SLACK] * n
        self._rearm_all()

    # ------------------------------------------------------------------
    # Deferral machinery
    # ------------------------------------------------------------------
    def _note_flush(self, bank_id: int, run_len: int) -> None:
        """Record one flush run (histogram + FLUSH trace window)."""
        if self._flush_hist is not None:
            self._flush_hist.observe(run_len)
        buf = self._trace_buf
        if buf is not None:
            times = self._times[bank_id]
            if times[-1] > times[0]:
                buf.window(times[0], times[-1], "FLUSH", self.subch,
                           bank_id)
            else:
                # Single-ACT runs are instants: a zero-length B/E pair
                # would be reordered (E-before-B) by the exporter.
                buf.instant(times[0], "FLUSH", self.subch, bank_id)

    def _flush(self, bank_id: int) -> None:
        """Land ``bank_id``'s buffered run on the real device."""
        rows = self._rows[bank_id]
        if rows:
            if self._flush_hist is not None \
                    or self._trace_buf is not None:
                self._note_flush(bank_id, len(rows))
            self._real.apply_activations(bank_id, rows,
                                         self._times[bank_id])
            self._rows[bank_id] = []
            self._times[bank_id] = []

    def _rearm(self, bank_id: int) -> None:
        """Restart ``bank_id``'s countdown from its landed tracker state.

        A bank that wants ALERT lands every ACT; any other alertable
        bank may defer as many ACTs as its tracker's slack allows.
        """
        if bank_id in self.alerting_banks:
            self._countdown[bank_id] = 1
        elif bank_id in self.alertable_banks:
            self._countdown[bank_id] = \
                self.trackers[bank_id].alert_slack()

    def _flush_all(self) -> None:
        """Land every bank's buffered run (REF/ALERT boundaries)."""
        for bank_id in range(self.num_banks):
            self._flush(bank_id)

    def _rearm_all(self) -> None:
        """Restart every alertable bank (after REF/ALERT service)."""
        for bank_id in self.alertable_banks:
            self._rearm(bank_id)

    def flush(self) -> None:
        """Land all deferred state (end of window, before collection)."""
        self._flush_all()

    # ------------------------------------------------------------------
    # DramDevice-facing operations
    # ------------------------------------------------------------------
    def activate(self, bank_id: int, row: int, now_ps: int) -> None:
        """Buffer one ACT; land the run at the slack horizon."""
        self._rows[bank_id].append(row)
        self._times[bank_id].append(now_ps)
        remaining = self._countdown[bank_id] - 1
        self._countdown[bank_id] = remaining
        if remaining <= 0:
            self._flush(bank_id)
            self._rearm(bank_id)

    def alert_pending(self) -> bool:
        """True if any bank's tracker needs an ALERT right now."""
        return bool(self.alerting_banks)

    def service_alert(self, now_ps: int,
                      rfm_slots: Optional[int] = None) -> int:
        """Flush everything, run the ALERT service, rearm all banks."""
        self._flush_all()
        victims = self._real.service_alert(now_ps, rfm_slots)
        self._rearm_all()
        return victims

    def do_ref(self, now_ps: int) -> RefreshSlice:
        """Flush everything, issue the REF, rearm all banks."""
        self._flush_all()
        slice_ = self._real.do_ref(now_ps)
        self._rearm_all()
        return slice_

    def rfm(self, bank_id: int, now_ps: int) -> int:
        """Flush ``bank_id`` (its triggering ACT included), then RFM."""
        self._flush(bank_id)
        mitigated = self._real.rfm(bank_id, now_ps)
        self._rearm(bank_id)
        return mitigated

    def drfm_mitigate(self, bank_id: int, aggressor_row: int) -> int:
        """Flush ``bank_id`` so the oracle pop lands in event order."""
        self._flush(bank_id)
        victims = self._real.drfm_mitigate(bank_id, aggressor_row)
        self._rearm(bank_id)
        return victims

    def note_row_press(self, bank_id: int, row: int,
                       equivalent_acts: int, now_ps: int) -> None:
        """Flush ``bank_id``, account the RowPress ACTs, rearm."""
        self._flush(bank_id)
        self._real.note_row_press(bank_id, row, equivalent_acts, now_ps)
        self._rearm(bank_id)

    def apply_activations(self, bank_id: int, rows: Sequence[int],
                          times: Sequence[int]) -> None:
        """Pass a pre-batched run straight through (idempotent seam)."""
        self._real.apply_activations(bank_id, rows, times)

    # ------------------------------------------------------------------
    # Verification helpers (flush first so oracles are current)
    # ------------------------------------------------------------------
    def max_unmitigated_acts(self) -> int:
        """Worst unmitigated per-row ACT count (oracle, post-flush)."""
        self._flush_all()
        return self._real.max_unmitigated_acts()

    def attack_succeeded(self, threshold: int) -> bool:
        """Ground truth over the flushed oracles."""
        self._flush_all()
        return self._real.attack_succeeded(threshold)


class ArrayBackend:
    """Chunked array-at-a-time kernel (see the module docstring)."""

    name = "array"

    def run(self, system: MultiCoreSystem, window_ps: int) -> SimResult:
        """Drive the window with batching device facades installed.

        The facades are removed (and all deferred state landed) before
        measurements are collected, so the returned result -- and the
        system object itself -- are indistinguishable from an event-
        backend run.
        """
        prof = _profile._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        proxies = [_BatchingDevice(device) for device in system.devices]
        for mc, proxy in zip(system.mcs, proxies):
            mc.device = proxy
        try:
            system.drive(window_ps)
            for mc in system.mcs:
                mc.finish(window_ps)
            for proxy in proxies:
                proxy.flush()
        finally:
            for mc, device in zip(system.mcs, system.devices):
                mc.device = device
        if prof is not None:
            prof.add_run(perf_counter() - t0, window_ps,
                         sum(mc.total_requests for mc in system.mcs),
                         sum(mc.total_activations for mc in system.mcs))
        return system.collect(window_ps)


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, KernelBackend] = {}

ENV_VAR = "REPRO_KERNEL_BACKEND"
"""Environment knob naming the default backend (same warn-once
defensive parsing as ``REPRO_JOBS``; see :mod:`repro._env`)."""


def register_backend(name: str, backend: KernelBackend,
                     replace: bool = False) -> None:
    """Register a backend under ``name`` for :func:`backend_by_name`.

    Third-party backends (an instrumented debug kernel, say) register
    here and become selectable everywhere --
    ``simulate(backend=...)``, ``--backend``, ``REPRO_KERNEL_BACKEND``.
    """
    if not replace and name in _BACKENDS:
        raise ValueError(f"backend {name!r} already registered")
    _BACKENDS[name] = backend


def available_backends() -> List[str]:
    """Sorted names of every registered kernel backend."""
    return sorted(_BACKENDS)


def backend_by_name(name: str) -> KernelBackend:
    """Look up a registered backend; KeyError lists the known names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(
            f"unknown kernel backend {name!r}; known: {known}") from None


def default_backend_name() -> str:
    """The backend ``REPRO_KERNEL_BACKEND`` selects (default: event)."""
    return _env.env_choice(ENV_VAR, EventBackend.name,
                           tuple(_BACKENDS))


def resolve_backend(spec: Union[str, KernelBackend, None]
                    ) -> KernelBackend:
    """Resolve a ``simulate(backend=...)`` argument to a backend object.

    ``None`` defers to :func:`default_backend_name` (the environment
    knob), a string goes through the registry, and an object is used
    as-is (it need not be registered).
    """
    if spec is None:
        return backend_by_name(default_backend_name())
    if isinstance(spec, str):
        return backend_by_name(spec)
    return spec


register_backend(EventBackend.name, EventBackend())
register_backend(ArrayBackend.name, ArrayBackend())
