"""Simulation sessions: parallel fan-out + a persistent result cache.

A :class:`SimSession` is the execution substrate every sweep in this
repository runs on.  It owns two things:

1. **A content-addressed result cache.**  Every job (a
   :class:`SimJob`, or any registered job type such as the counting
   jobs in :mod:`repro.experiments.common`) is hashed into a stable
   token derived from the *values* of its workload spec, mitigation
   setup, scale, seed, and system configuration -- never from object
   identities.  Results are memoised in memory and, when enabled,
   serialized to JSON under a cache directory (``REPRO_CACHE_DIR`` or
   ``~/.cache/repro``), so repeated invocations of the report or the
   CLI skip work they have already done.

2. **A fault-tolerant process-pool fan-out API.**
   :meth:`SimSession.run_many` submits independent jobs to worker
   processes as individual futures and merges the results back in
   submission order.  Every job is a pure function of its content
   (traces are freshly seeded per run), so parallel output is
   byte-identical to a serial run -- and a *retried* job re-executes
   the same pure content, so bounded retries never change results.
   Completed results are stored (memory + disk) as they finish, a
   crashed worker pool is rebuilt (falling back to serial in-process
   execution if it keeps breaking), and a :class:`FailurePolicy`
   decides whether a permanently-failed job raises (:obj:`FAIL_FAST`,
   the library default) or yields a typed :class:`JobFailure` record
   in its result slot (:obj:`KEEP_GOING`, what ``python -m repro
   report`` uses so one poisoned cell degrades a report instead of
   destroying it).

:meth:`SimSession.run_many` is the one batch entry point (``run`` runs
one job, ``slowdowns`` pairs protected jobs with their baselines), and
workers, retries, the per-job timeout and the failure policy are
session settings.  :func:`using_session` scopes a differently-configured
session (e.g. the CLI's ``--jobs``/``--cache-dir`` one) over a region
of code.

Example::

    from repro.sim import SimJob, SimSession, mirza_setup
    from repro.params import SimScale

    session = SimSession(max_workers=4)
    scale = SimScale(512)
    jobs = [SimJob("tc", mirza_setup(trhd, scale), scale)
            for trhd in (500, 1000, 2000)]
    for slowdown, result in session.slowdowns(jobs):
        print(slowdown, result.alerts_per_100_trefi())
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import warnings
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import _profile
from repro._env import env_float, env_int
from repro.cpu.system import SimResult
from repro.obs import metrics as _obs_metrics
from repro.obs import spans as _obs_spans
from repro.obs import trace as _obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressUpdate
from repro.params import (
    AboTimings,
    DramGeometry,
    DramTimings,
    MitigationCosts,
    SimScale,
    SystemConfig,
)
from repro.workloads.specs import WorkloadSpec, workload_by_name

CACHE_FORMAT = 5
"""Bump when job hashing or result serialization changes shape.

Format 2: :class:`SimResult` grew optional ``metrics`` and
``trace_events`` fields (PR 3's observability subsystem).
Format 3: :class:`SimResult` grew the optional ``spans`` field
(session-level span tracing).
Format 4: :class:`SimResult` grew optional ``tenants`` and
``unmitigated_by_bank`` fields; :class:`TenantJob` and
:class:`TraceReplayJob` joined the cacheable job types.
:class:`repro.security.fuzz.FuzzJob` later joined the cacheable job
types under the same format -- a new job class mints new tokens, so
no bump was needed -- and so did :class:`CalibrationJob` (one int per
key).
Format 5: :class:`SimResult` lost its ``backend`` field (one kernel).
"""

_MISS = object()
"""Internal sentinel distinguishing 'no cached value' from any result."""


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class FailurePolicy(enum.Enum):
    """What :meth:`SimSession.run_many` does with a permanent failure.

    ``FAIL_FAST`` (the library default) finishes harvesting the batch
    -- storing every completed sibling result in the cache first, so a
    rerun resumes from where this one died -- and then raises
    :class:`JobFailed` for the first failed job.  ``KEEP_GOING``
    returns a typed :class:`JobFailure` record in the failed job's
    result slot instead, which is how the report renders every
    unaffected exhibit and merely flags the degraded one.
    """

    FAIL_FAST = "fail_fast"
    KEEP_GOING = "keep_going"


@dataclasses.dataclass(frozen=True)
class JobFailure:
    """A permanently-failed job, as a value instead of an exception.

    Under :obj:`FailurePolicy.KEEP_GOING` this record occupies the
    failed job's slot in :meth:`SimSession.run_many`'s result list; use
    :func:`is_failure` (or ``isinstance``) to tell it from a result.
    ``attempts`` counts executions including retries, and ``timed_out``
    marks a job that exceeded the per-job timeout rather than raising.
    """

    job: Any = dataclasses.field(compare=False)
    token: Optional[str]
    error_type: str
    message: str
    attempts: int
    timed_out: bool = False

    def describe(self) -> str:
        """One-line human-readable account of the failure."""
        kind = "timed out" if self.timed_out else "failed"
        return (f"{job_label(self.job)} {kind} after "
                f"{self.attempts} attempt(s): "
                f"{self.error_type}: {self.message}")


class JobFailed(RuntimeError):
    """Raised by ``FAIL_FAST`` batches; carries the :class:`JobFailure`."""

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def is_failure(result: Any) -> bool:
    """True when a result slot holds a :class:`JobFailure` record."""
    return isinstance(result, JobFailure)


class InjectedFault(RuntimeError):
    """The deterministic test-only fault raised by ``REPRO_FAULT_RATE``."""


def fault_roll(job: Any) -> float:
    """Deterministic uniform [0, 1) roll for one job's injected fault.

    Derived from the job's content token (or ``repr`` for untokened
    jobs) and ``REPRO_FAULT_SEED``, so the same batch faults the same
    jobs in every process and on every rerun.
    """
    token = job_token(job) or repr(job)
    seed = os.environ.get("REPRO_FAULT_SEED", "0")
    digest = hashlib.sha256(
        f"fault:{seed}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _maybe_inject_fault(job: Any, attempt: int) -> None:
    """Test-only hook: fail a job's *first* attempt deterministically.

    ``REPRO_FAULT_RATE=p`` makes a content-hash-selected fraction ``p``
    of jobs raise :class:`InjectedFault` on attempt 0.  Faults are
    transient by construction (retries always heal), so
    ``--max-retries 0`` is what makes them permanent -- the CI smoke
    job uses exactly that to exercise the DEGRADED report path.
    """
    rate = env_float("REPRO_FAULT_RATE", 0.0)
    if rate <= 0.0 or attempt > 0:
        return
    if fault_roll(job) < rate:
        raise InjectedFault(
            f"injected fault (REPRO_FAULT_RATE={rate}) for "
            f"{type(job).__name__}")


@dataclasses.dataclass
class BatchStats:
    """Plan-level statistics for one :meth:`SimSession.run_many`.

    ``submitted`` counts the jobs handed to the batch, ``unique`` the
    distinct content tokens among them (plus any untokened jobs, which
    can never deduplicate), ``cache_hits`` the submitted jobs served
    from a pre-batch cache, and ``computed`` the tokened jobs that
    executed to completion.  ``deduplicated`` is the work the batch
    *planned away*: jobs whose content another job in the same batch
    already covers.  The failure triple: ``failed`` counts jobs that ended as
    :class:`JobFailure` records, ``retried`` the extra executions
    spent on retries, and ``timed_out`` the per-job timeout expiries
    (each of which also consumed an attempt).
    """

    submitted: int = 0
    unique: int = 0
    cache_hits: int = 0
    computed: int = 0
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0

    @property
    def deduplicated(self) -> int:
        return self.submitted - self.unique

    @property
    def hit_rate(self) -> float:
        """Fraction of submitted jobs served from a pre-batch cache."""
        return self.cache_hits / self.submitted if self.submitted \
            else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the worker-seconds budget spent executing.

        ``busy_seconds`` sums per-job execution time wherever the job
        ran; the budget is ``workers * wall_seconds``.  Low values on a
        wide pool mean the batch was starved (cache hits, dedup) or
        serialized (queue stalls, rebuilds).
        """
        budget = self.workers * self.wall_seconds
        return min(1.0, self.busy_seconds / budget) if budget > 0 \
            else 0.0


def _observability_satisfied(result: Any) -> bool:
    """True unless ``result`` lacks observability data being requested.

    A :class:`SimResult` cached before metrics/tracing were turned on
    carries ``None`` in those fields; serving it would silently drop
    the requested data, so the lookup treats it as a miss and the job
    recomputes (overwriting the cache entry with a complete one).
    """
    if not isinstance(result, SimResult):
        return True
    if _obs_metrics.requested() and result.metrics is None:
        return False
    if _obs_trace.requested() and result.trace_events is None:
        return False
    if _obs_spans.requested() and result.spans is None:
        return False
    return True


class Undescribable(TypeError):
    """Raised when a job holds state with no canonical description.

    Typical cause: a :class:`~repro.sim.runner.MitigationSetup` built
    around an ad-hoc closure instead of the library's picklable factory
    objects.  Such jobs still *run* -- they are simply executed fresh,
    in-process, and never cached.
    """


def describe(obj: Any) -> Any:
    """Canonical JSON-able description of a job component.

    Dataclasses map to ``{"__class__": name, field: value, ...}`` over
    their *comparison* fields (``compare=False`` fields, like
    ``MitigationSetup.extra``, are deliberately excluded); containers
    and primitives map to themselves.  Anything else -- closures, open
    files, arbitrary objects -- raises :class:`Undescribable`.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        description: Dict[str, Any] = {
            "__class__": type(obj).__qualname__}
        for field in dataclasses.fields(obj):
            if not field.compare:
                continue
            description[field.name] = describe(getattr(obj, field.name))
        return description
    if isinstance(obj, (list, tuple)):
        return [describe(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): describe(obj[key])
                for key in sorted(obj, key=str)}
    raise Undescribable(f"no canonical description for {obj!r}")


def job_label(job: Any) -> str:
    """Short human-readable label for one job (spans, progress, failures).

    A job that defines ``label()`` names itself (the counting
    ``CgfJob`` renders as ``cgf:mcf/x16/seed0 (8 filters +
    subarrays)``); ``SimJob``-shaped jobs render as ``workload/setup``;
    anything else falls back to the class name plus a token prefix, so
    two distinct ad-hoc jobs never share a label by accident.
    """
    label = getattr(job, "label", None)
    if callable(label):
        return label()
    workload = getattr(job, "workload", None)
    name = workload if isinstance(workload, str) \
        else getattr(workload, "name", None)
    setup = getattr(getattr(job, "setup", None), "name", None)
    if name and setup:
        return f"{name}/{setup}"
    token = job_token(job)
    if token:
        return f"{type(job).__name__}:{token[:10]}"
    return type(job).__name__


def job_token(job: Any) -> Optional[str]:
    """Stable content hash of a job, or ``None`` if it has none.

    The token is a SHA-256 over the canonical JSON description plus the
    cache format version: equal-valued jobs built independently hash
    identically, and *any* differing field -- including individual
    ``SystemConfig`` values, which the old ``run_baseline`` key
    (``id(type(config))``) conflated -- yields a different token.
    """
    try:
        payload = {"format": CACHE_FORMAT, "job": describe(job)}
    except Undescribable:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Jobs and result codecs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CalibrationJob:
    """The calibrated pacing of one (workload, scale, seed, config) key.

    Its result is the ``compute_per_miss_ps`` that
    :func:`repro.sim.runner.calibrated_workload` settles on.  Job types
    that calibrate list theirs in ``calibrations()``, and
    :meth:`SimSession.run_many` runs one per distinct key before the
    jobs that need it (see :meth:`SimSession._calibrate`).
    """

    workload: Union[str, WorkloadSpec]
    scale: SimScale = SimScale(64)
    seed: int = 0
    config: SystemConfig = SystemConfig()

    def resolved(self) -> "CalibrationJob":
        """The same job with a workload *name* resolved to its spec."""
        if isinstance(self.workload, str):
            return dataclasses.replace(
                self, workload=workload_by_name(self.workload))
        return self

    def label(self) -> str:
        """``calibrate:<workload>/x<scale>/seed<seed>`` (spans,
        progress)."""
        name = self.workload if isinstance(self.workload, str) \
            else self.workload.name
        return (f"calibrate:{name}/x{self.scale.time_scale}"
                f"/seed{self.seed}")

    def execute(self) -> int:
        """Run the probe windows, uncached by the session."""
        # Through the module: the benchmark's tracer wraps this name.
        from repro.sim import runner
        return runner.calibrated_workload(
            self.workload, self.scale, self.seed,
            self.config).compute_per_miss_ps


@dataclasses.dataclass(frozen=True)
class SimJob:
    """One independent (workload, mitigation, scale, seed, config) run."""

    workload: Union[str, WorkloadSpec]
    setup: Any  # a repro.sim.runner.MitigationSetup
    scale: SimScale = SimScale(64)
    seed: int = 0
    config: SystemConfig = SystemConfig()

    def resolved(self) -> "SimJob":
        """The same job with a workload *name* resolved to its spec."""
        if isinstance(self.workload, str):
            return dataclasses.replace(
                self, workload=workload_by_name(self.workload))
        return self

    def calibrations(self) -> List[CalibrationJob]:
        """The calibration keys :meth:`execute` reads."""
        return [CalibrationJob(self.workload, self.scale, self.seed,
                               self.config)]

    def execute(self) -> SimResult:
        """Run the simulation, uncached (the worker-process path)."""
        from repro.sim.runner import simulate
        return simulate(self.workload, self.setup, self.scale,
                        self.seed, self.config)


_CODECS: Dict[type, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] \
    = {}


def register_job_type(job_type: type,
                      encode: Callable[[Any], Any],
                      decode: Callable[[Any], Any]) -> None:
    """Register the disk-cache codec for one job class's results.

    ``encode`` maps a result to a JSON-able payload; ``decode`` inverts
    it.  Job types without a codec still run and memoise in memory --
    they just never persist to disk.
    """
    _CODECS[job_type] = (encode, decode)


def _system_config_from(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its ``asdict`` payload."""
    kwargs = dict(data)
    kwargs["timings"] = DramTimings(**kwargs["timings"])
    kwargs["abo"] = AboTimings(**kwargs["abo"])
    kwargs["geometry"] = DramGeometry(**kwargs["geometry"])
    kwargs["costs"] = MitigationCosts(**kwargs["costs"])
    return SystemConfig(**kwargs)


def encode_sim_result(result: SimResult) -> Dict[str, Any]:
    """Serialize a :class:`SimResult` to a JSON-able dict."""
    return dataclasses.asdict(result)


def decode_sim_result(payload: Dict[str, Any]) -> SimResult:
    """Inverse of :func:`encode_sim_result` (floats round-trip exactly)."""
    data = dict(payload)
    data["config"] = _system_config_from(data["config"])
    return SimResult(**data)


@dataclasses.dataclass(frozen=True)
class TenantJob:
    """One multi-tenant scenario run (see ``repro.workloads.tenants``).

    ``scenario`` is a :class:`~repro.workloads.tenants.TenantScenario`
    -- typed ``Any`` so this module never imports the workloads
    package (which would cycle through ``repro.workloads.tenants``);
    it is a frozen dataclass tree, so :func:`describe` hashes it by
    content like any other job field.
    """

    scenario: Any  # a repro.workloads.tenants.TenantScenario
    setup: Any  # a repro.sim.runner.MitigationSetup
    scale: SimScale = SimScale(64)
    seed: int = 0
    config: SystemConfig = SystemConfig()

    @property
    def workload(self) -> str:
        """Scenario label, so :func:`job_label` renders
        ``scenario/setup``."""
        return self.scenario.label()

    def calibrations(self) -> List[CalibrationJob]:
        """One calibration per tenant that runs a Table IV workload."""
        return [CalibrationJob(tenant.workload, self.scale, self.seed,
                               self.config)
                for tenant in self.scenario.tenants if tenant.workload]

    def execute(self) -> SimResult:
        """Run the scenario, uncached (the worker-process path)."""
        from repro.sim.runner import simulate_tenants
        return simulate_tenants(self.scenario, self.setup, self.scale,
                                self.seed, self.config)


@dataclasses.dataclass(frozen=True)
class TraceReplayJob:
    """One ingested-trace replay run.

    ``trace_path`` names a native trace to replay (sharded across the
    cores; see :func:`repro.sim.runner.simulate_trace`).  When it is
    ``None``, a trace is synthesized from the calibrated ``workload``
    generator instead -- the self-contained mode the trace-calibration
    exhibit uses.  ``content_digest`` folds the file's bytes into the
    cache token so editing a trace in place never serves stale
    results; build path-based jobs with :meth:`for_path`.
    """

    trace_path: Optional[str]
    workload: Optional[str]
    setup: Any  # a repro.sim.runner.MitigationSetup
    scale: SimScale = SimScale(64)
    seed: int = 0
    config: SystemConfig = SystemConfig()
    mlp: int = 8
    content_digest: Optional[str] = None

    @classmethod
    def for_path(cls, trace_path: str, setup: Any,
                 scale: SimScale = SimScale(64), seed: int = 0,
                 config: SystemConfig = SystemConfig(),
                 mlp: int = 8,
                 workload: Optional[str] = None) -> "TraceReplayJob":
        """A replay job for a trace file, digest and metadata filled.

        Reads the ``# workload:`` metadata claim (unless overridden)
        and hashes the file content into the job identity.
        """
        from repro.workloads.tracefile import trace_metadata
        if workload is None:
            workload = trace_metadata(trace_path).get("workload")
        digest = hashlib.sha256()
        with open(trace_path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        return cls(trace_path=trace_path, workload=workload,
                   setup=setup, scale=scale, seed=seed, config=config,
                   mlp=mlp, content_digest=digest.hexdigest())

    def calibrations(self) -> List[CalibrationJob]:
        """The synthesized trace's calibration; none for a trace file."""
        if self.trace_path is not None or self.workload is None:
            return []
        return [CalibrationJob(self.workload, self.scale, self.seed,
                               self.config)]

    def execute(self) -> SimResult:
        """Replay the trace, uncached (the worker-process path)."""
        from repro.sim.runner import simulate_trace, synthesize_trace
        if self.trace_path is not None:
            trace = self.trace_path
        else:
            if self.workload is None:
                raise ValueError(
                    "TraceReplayJob needs a trace_path or a workload "
                    "to synthesize from")
            trace = synthesize_trace(self.workload, self.scale,
                                     self.seed, self.config)
        return simulate_trace(trace, self.setup, self.scale,
                              self.seed, self.config, mlp=self.mlp)


register_job_type(CalibrationJob, int, int)
register_job_type(SimJob, encode_sim_result, decode_sim_result)
register_job_type(TenantJob, encode_sim_result, decode_sim_result)
register_job_type(TraceReplayJob, encode_sim_result, decode_sim_result)


_FAULT_ENV_VARS = ("REPRO_FAULT_RATE", "REPRO_FAULT_SEED")


def _pool_env_overrides() -> Dict[str, str]:
    """Env vars that carry the parent's observability and
    fault-injection requests to workers.

    A parent that enabled collection *programmatically* (an installed
    registry/buffer rather than an env knob) would otherwise fan out to
    workers that collect nothing, and a spawn-start pool would miss
    env vars set after interpreter start.
    """
    env: Dict[str, str] = {}
    if _obs_metrics.requested():
        env["REPRO_METRICS"] = "1"
    if _obs_trace.requested():
        env["REPRO_TRACE"] = "1"
        buffer = _obs_trace._ACTIVE
        if buffer is not None:
            env["REPRO_TRACE_LIMIT"] = str(buffer.limit)
    if _obs_spans.requested():
        env["REPRO_SPANS"] = "1"
        recorder = _obs_spans._ACTIVE
        if recorder is not None:
            env["REPRO_SPAN_LIMIT"] = str(recorder.limit)
    for var in _FAULT_ENV_VARS:
        value = os.environ.get(var)
        if value:
            env[var] = value
    return env


def _execute_job(payload: Tuple[Any, Dict[str, str], bool, int, tuple]
                 ) -> Tuple[Any, Optional[dict], float]:
    """Pool entry point carrying observability/profiling context.

    ``payload`` is ``(job, env overrides, want_profile, attempt,
    calibrated)``; the attempt number feeds the deterministic
    fault-injection hook, and ``calibrated`` holds the ``(calibration
    job, value)`` pairs the session calibrated for this job (see
    :meth:`SimSession._calibrate`), primed into this worker's
    calibration cache before the job runs.  Returns ``(result,
    profile_dict, exec_seconds)`` where ``profile_dict`` is the
    worker-side
    :class:`~repro._profile.KernelProfile` in dict form (``None``
    unless the parent asked for profiling) and ``exec_seconds`` is the
    job's wall-clock execution time in this worker (it feeds the
    parent's pool-utilization gauge -- the parent only observes
    queue + execution time together).
    """
    job, env, want_profile, attempt, calibrated = payload
    for key, value in env.items():
        os.environ[key] = value
    if calibrated:
        from repro.sim import runner
        runner.prime_calibrations(calibrated)
    _maybe_inject_fault(job, attempt)
    t0 = perf_counter()
    if not want_profile:
        result = job.execute()
        return result, None, perf_counter() - t0
    with _profile.profiling() as prof:
        result = job.execute()
    return result, prof.to_dict(), perf_counter() - t0


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
def default_cache_dir() -> str:
    """The on-disk cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


QUEUE_DEPTH_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
"""Buckets of the ``session.queue_depth`` histogram (cells still
outstanding, observed at each completion)."""


class _BatchMonitor:
    """Per-batch counts, span recording and progress bookkeeping.

    One instance per :meth:`SimSession.run_many`.  It holds the batch's
    tally -- jobs ``computed`` (tokened ones only), ``retried``
    executions, ``timed_out`` expiries, and ``failures`` by token --
    and owns the wall-clock view of the batch: per-cell session spans
    (disposition in the meta), the ``workers`` execution-phase span,
    the live progress callback, the queue-depth histogram, and the
    busy-seconds total behind the pool-utilization gauge.  Span
    recording is skipped entirely when no recorder is installed; the
    histogram lands in the session-local registry, which is always
    present and cheap.
    """

    __slots__ = ("recorder", "progress", "total", "done", "cache_hits",
                 "computed", "retried", "timed_out", "failed",
                 "failures", "busy_s", "pool_rebuilds", "start_us",
                 "_t0", "_starts", "_queue_hist")

    def __init__(self, recorder: Optional[_obs_spans.SpanRecorder],
                 progress: Optional[Callable[[ProgressUpdate], None]],
                 registry: MetricsRegistry, total: int) -> None:
        self.recorder = recorder
        self.progress = progress
        self.total = total
        self.done = 0
        self.cache_hits = 0
        self.computed = 0
        self.retried = 0
        self.timed_out = 0
        self.failed = 0
        self.failures: Dict[str, JobFailure] = {}
        self.busy_s = 0.0
        self.pool_rebuilds = 0
        self.start_us = _obs_spans.now_us()
        self._t0 = perf_counter()
        self._starts: Dict[str, Tuple[float, float]] = {}
        self._queue_hist = registry.histogram("session.queue_depth",
                                              QUEUE_DEPTH_BOUNDS)

    @property
    def elapsed_s(self) -> float:
        return perf_counter() - self._t0

    def job_started(self, token: Optional[str]) -> None:
        """Mark a cell's lifetime start (first submission only, so a
        retry or a pool rebuild never resets the span)."""
        if token is not None and token not in self._starts:
            self._starts[token] = (_obs_spans.now_us(), perf_counter())

    def cell_done(self, token: Optional[str], job: Any,
                  disposition: str, attempts: int,
                  exec_s: float = 0.0) -> None:
        """Record one finished cell: span, histogram, progress tick."""
        self.done += 1
        if disposition == "cache-hit":
            self.cache_hits += 1
        elif disposition in ("failed", "timed-out"):
            self.failed += 1
        self.busy_s += exec_s
        self._queue_hist.observe(self.total - self.done)
        if self.recorder is not None:
            started = self._starts.pop(token, None) \
                if token is not None else None
            if started is not None:
                start_us = started[0]
                dur_us = (perf_counter() - started[1]) * 1e6
            else:
                # Cache hits and untokened jobs have no tracked start;
                # their span is the execution time ending now.
                dur_us = exec_s * 1e6
                start_us = _obs_spans.now_us() - dur_us
            meta: Dict[str, Any] = {"disposition": disposition,
                                    "attempts": attempts}
            if token is not None:
                meta["token"] = token[:12]
            if exec_s:
                meta["exec_ms"] = round(exec_s * 1e3, 3)
            self.recorder.add(_obs_spans.TRACK_SESSION,
                              f"cell:{job_label(job)}",
                              start_us, dur_us, meta)
        self._tick(job)

    def calibrated(self, job: Any, disposition: str,
                   started: Tuple[float, float]) -> None:
        """Record one calibration of the batch, which ends now: a
        ``calibrate:`` span, and a progress tick that names it but
        counts no cell (it runs ahead of a pending cell, so the tick
        never reads as the batch's last).  ``started`` is
        ``(now_us(), perf_counter())`` at its start."""
        exec_s = perf_counter() - started[1]
        self.busy_s += exec_s
        if self.recorder is not None:
            self.recorder.add(
                _obs_spans.TRACK_SESSION, job_label(job), started[0],
                exec_s * 1e6, {"disposition": disposition,
                               "exec_ms": round(exec_s * 1e3, 3)})
        self._tick(job)

    def _tick(self, job: Any) -> None:
        """Send the batch's cell counts, naming ``job``, to the
        progress callback."""
        if self.progress is not None:
            self.progress(ProgressUpdate(
                done=self.done, total=self.total,
                cache_hits=self.cache_hits,
                retried=self.retried, failed=self.failed,
                elapsed_s=self.elapsed_s, last=job_label(job)))

    @contextmanager
    def phase(self, name: str, **meta: Any):
        """Record the ``with`` block as a session-track span."""
        if self.recorder is None:
            yield
            return
        with self.recorder.span(_obs_spans.TRACK_SESSION, name,
                                meta) as attrs:
            yield
            attrs["pool_rebuilds"] = self.pool_rebuilds

    def finish(self, batch: "BatchStats") -> None:
        """Record the batch's root ``run_many`` span."""
        if self.recorder is None:
            return
        self.recorder.add(
            _obs_spans.TRACK_SESSION, "run_many", self.start_us,
            self.elapsed_s * 1e6,
            {"submitted": batch.submitted, "unique": batch.unique,
             "cache_hits": batch.cache_hits,
             "computed": batch.computed, "failed": batch.failed,
             "retried": batch.retried, "timed_out": batch.timed_out,
             "workers": batch.workers})


class SimSession:
    """Owns result caching and parallel fan-out for simulation jobs.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent JSON result cache.  ``None``
        resolves ``REPRO_CACHE_DIR`` and then ``~/.cache/repro``.
    disk_cache:
        ``True``/``False`` force the on-disk cache on or off; ``None``
        (the library default) enables it only when a ``cache_dir`` was
        given explicitly or ``REPRO_CACHE_DIR`` is set, so plain
        library use stays memory-only.
    max_workers:
        Process fan-out for :meth:`run_many`.  ``None`` falls back to
        the ``REPRO_JOBS`` environment variable (``auto`` means
        ``os.cpu_count()``), then to 1 (serial).  Parallel runs produce
        byte-identical results to serial ones; the knob only trades
        wall-clock for cores.
    failure_policy:
        What a permanently-failed job does, as a :class:`FailurePolicy`
        (anything else raises ``TypeError``):
        :obj:`FailurePolicy.FAIL_FAST` raises :class:`JobFailed` after
        storing every completed sibling, :obj:`FailurePolicy.KEEP_GOING`
        yields a :class:`JobFailure` record in the result slot.
    max_retries:
        Bounded re-executions per failed job (retried jobs re-run the
        same pure content, so results stay bit-identical).  ``None``
        falls back to ``REPRO_MAX_RETRIES``, then 1.
    job_timeout:
        Per-job seconds budget when fanning out over worker processes
        (``None`` -- the default, via ``REPRO_JOB_TIMEOUT`` -- means no
        timeout).  A timed-out job consumes an attempt; the pool is
        torn down and rebuilt so a wedged worker cannot hold the batch
        hostage.  Serial in-process execution cannot be preempted and
        ignores the timeout.
    progress:
        Optional callback invoked once per finished cell with a
        :class:`~repro.obs.progress.ProgressUpdate` (the CLI's
        ``--progress`` installs a
        :class:`~repro.obs.progress.ProgressLine` here).
    """

    _MAX_POOL_REBUILDS = 2
    """Broken-pool rebuilds before falling back to serial in-process."""

    _MAX_QUEUE_STALLS = 3
    """Timeouts a *queued* (never-started) job may absorb before the
    session treats the wait as a real per-job timeout."""

    def __init__(self, cache_dir: Optional[str] = None,
                 disk_cache: Optional[bool] = None,
                 max_workers: Optional[int] = None,
                 failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST,
                 max_retries: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 progress: Optional[Callable[[ProgressUpdate], None]]
                 = None) -> None:
        if disk_cache is None:
            disk_cache = (cache_dir is not None
                          or bool(os.environ.get("REPRO_CACHE_DIR")))
        self.cache_dir = str(cache_dir) if cache_dir \
            else default_cache_dir()
        self.disk_cache = bool(disk_cache)
        if not isinstance(failure_policy, FailurePolicy):
            raise TypeError(f"failure_policy must be a FailurePolicy, "
                            f"not {failure_policy!r}")
        self.max_workers = max_workers
        self.failure_policy = failure_policy
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.progress = progress
        self._memory: Dict[str, Any] = {}
        self._disk_disabled: set = set()  # job types degraded to memory
        self.last_batch: Optional[BatchStats] = None
        self.obs = MetricsRegistry()
        """Session-local batch metrics (cache/pool gauges, queue-depth
        histogram).  Separate from the scoped ``repro.obs`` registry on
        purpose: wall-clock-dependent gauges like pool utilization
        would break the serial-vs-pool snapshot identity the scoped
        registry guarantees.  Read it via :meth:`obs_snapshot`."""

    # -- public API ----------------------------------------------------
    def run(self, job: Any) -> Any:
        """Run (or fetch from cache) a single job."""
        return self.run_many([job])[0]

    def run_many(self, jobs: Iterable[Any]) -> List[Any]:
        """Run a batch of independent jobs; results in submission order.

        Cache hits are served without computing; distinct jobs with
        identical content are computed once.  With more than one worker
        the cache misses fan out over per-job ``ProcessPoolExecutor``
        futures; the merged output is identical to a serial run because
        every job is a pure function of its content.  Each workload
        calibration the misses read runs once, in this process, when the
        first miss that reads it comes up (see :meth:`_calibrate`).
        Untokened jobs (no content hash, so never cached) run in this
        process after the rest.

        The batch is fault-tolerant: each job gets bounded retries
        (``max_retries``) and, in the pool path, a per-job timeout
        (``job_timeout`` seconds); completed results are stored in the
        cache *as they finish*, so a crashed or killed batch resumes
        from cache instead of from zero.  A broken worker pool
        (``BrokenProcessPool`` -- e.g. an OOM-killed worker) is rebuilt
        up to ``_MAX_POOL_REBUILDS`` times and then the remainder runs
        serially in-process.  What a *permanent* failure does depends
        on the session's ``failure_policy``: see :class:`FailurePolicy`.
        """
        jobs = [job.resolved() if hasattr(job, "resolved") else job
                for job in jobs]
        tokens = [job_token(job) for job in jobs]
        retries = self._effective_retries()
        timeout = self._effective_timeout()
        results: List[Any] = [_MISS] * len(jobs)
        pending: "OrderedDict[str, Any]" = OrderedDict()
        hit_jobs: "OrderedDict[str, Any]" = OrderedDict()
        untokened: List[int] = []
        hits = 0
        for index, (job, token) in enumerate(zip(jobs, tokens)):
            if token is None:
                untokened.append(index)
                continue
            hit = self._lookup(token, type(job))
            if hit is not _MISS:
                results[index] = hit
                hits += 1
                if token not in hit_jobs:
                    hit_jobs[token] = job
            elif token not in pending:
                pending[token] = job
        unique = list(pending.items())
        workers = self._effective_workers(len(unique))
        # The monitor counts *cells* (distinct work items), not raw
        # submissions: distinct cache-hit tokens + unique pending
        # tokens + untokened jobs.
        monitor = _BatchMonitor(
            recorder=_obs_spans.active(), progress=self.progress,
            registry=self.obs,
            total=len(hit_jobs) + len(unique) + len(untokened))
        for token, job in hit_jobs.items():
            monitor.cell_done(token, job, "cache-hit", attempts=0)
        calibrated: Dict[str, Any] = {}
        with monitor.phase("workers", workers=workers):
            if workers > 1 and len(unique) > 1:
                self._run_pool(unique, workers, retries, timeout,
                               monitor, calibrated)
            else:
                self._run_serial(unique, retries, monitor, calibrated)
            loose = self._run_serial(
                [(None, jobs[index]) for index in untokened], retries,
                monitor, calibrated)
        for index, outcome in zip(untokened, loose):
            results[index] = outcome
        self.last_batch = BatchStats(
            submitted=len(jobs),
            unique=len(hit_jobs.keys() | pending.keys())
            + len(untokened),
            cache_hits=hits,
            computed=monitor.computed,
            failed=monitor.failed,
            retried=monitor.retried,
            timed_out=monitor.timed_out,
            workers=workers,
            wall_seconds=monitor.elapsed_s,
            busy_seconds=monitor.busy_s)
        self._publish_failure_metrics(self.last_batch)
        self._publish_batch_metrics(self.last_batch)
        monitor.finish(self.last_batch)
        for index, token in enumerate(tokens):
            if results[index] is _MISS:
                results[index] = self._memory[token] \
                    if token in self._memory else monitor.failures[token]
        if self.failure_policy is FailurePolicy.FAIL_FAST:
            for result in results:
                if is_failure(result):
                    raise JobFailed(result)
        return results

    def slowdowns(self, jobs: Iterable[SimJob]
                  ) -> List[Tuple[float, SimResult]]:
        """``(percent slowdown vs unprotected baseline, protected run)``
        for each job, from one :meth:`run_many` batch.

        Each job's baseline is the same job under
        :func:`~repro.sim.runner.baseline_setup`; the batch holds every
        baseline followed by every protected job, and :meth:`run_many`
        computes each distinct baseline once however many jobs share
        it.  Under ``KEEP_GOING`` a pair whose protected run *or*
        baseline failed yields its :class:`JobFailure` record in place
        of the ``(slowdown, result)`` tuple.
        """
        from repro.sim.runner import baseline_setup
        jobs = list(jobs)
        setup = baseline_setup()
        results = self.run_many(
            [dataclasses.replace(job, setup=setup) for job in jobs]
            + jobs)
        pairs: List[Tuple[float, SimResult]] = []
        for baseline, protected in zip(results, results[len(jobs):]):
            if is_failure(protected):
                pairs.append(protected)
            elif is_failure(baseline):
                pairs.append(baseline)
            else:
                pairs.append((protected.slowdown_pct(baseline),
                              protected))
        return pairs

    def clear(self, memory: bool = True, disk: bool = False) -> None:
        """Drop cached results (the in-memory map, optionally disk).

        The disk sweep removes both ``*.json`` entries and any orphaned
        ``*.tmp.<pid>`` files a crashed writer left behind.
        """
        if memory:
            self._memory.clear()
        if disk and self.disk_cache and os.path.isdir(self.cache_dir):
            for shard in os.listdir(self.cache_dir):
                shard_dir = os.path.join(self.cache_dir, shard)
                if len(shard) != 2 or not os.path.isdir(shard_dir):
                    continue
                for name in os.listdir(shard_dir):
                    if name.endswith(".json") or ".json.tmp." in name:
                        try:
                            os.unlink(os.path.join(shard_dir, name))
                        except OSError:
                            pass

    # -- execution internals -------------------------------------------
    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        """Pool construction seam (tests substitute broken pools)."""
        return ProcessPoolExecutor(max_workers=workers)

    def _failure_for(self, job: Any, token: Optional[str],
                     error: Optional[BaseException], attempts: int,
                     timed_out: bool = False) -> JobFailure:
        if timed_out:
            error_type = "TimeoutError"
            message = "exceeded the per-job timeout"
        else:
            error_type = type(error).__name__
            message = str(error)
        return JobFailure(job=job, token=token, error_type=error_type,
                          message=message, attempts=attempts,
                          timed_out=timed_out)

    def _complete(self, token: str, job: Any, result: Any,
                  prof_dict: Optional[dict], monitor: _BatchMonitor,
                  exec_s: float, attempts: int) -> None:
        """Fold one finished pool job into the parent, cache included.

        Results are stored *as they finish* -- not after the batch --
        so a batch killed halfway resumes from cache on rerun.
        ``attempts`` counts every execution including the successful
        one; more than one means the cell's disposition is ``retried``.
        """
        if prof_dict is not None and _profile._ACTIVE is not None:
            _profile._ACTIVE.merge(prof_dict)
        # A worker's collection scope merged into *its* process's
        # sinks; fold the shipped snapshot/events into the parent's so
        # pooled runs aggregate exactly like serial in-process ones.
        self._absorb_observability(result)
        self._store(token, type(job), result)
        monitor.computed += 1
        monitor.cell_done(token, job,
                          "retried" if attempts > 1 else "computed",
                          attempts, exec_s=exec_s)

    def _calibrate(self, job: Any, values: Dict[str, Any],
                   monitor: _BatchMonitor) -> tuple:
        """The ``(CalibrationJob, value)`` pairs ``job`` reads, each
        computed at most once per batch.

        Called as each cache miss is about to run or be submitted, so a
        key is calibrated when the first job that reads it comes up and
        a pool's workers run the jobs already submitted meanwhile.
        ``values`` maps the batch's keys so far to their value
        (``_MISS`` for one that failed).  A new key is looked up in this
        session's cache and otherwise executed here, in this process:
        one attempt and no timeout (at most four bounded probe
        windows).  Values are stored like any result and primed into
        this process's calibration cache; the returned pairs are what
        the job's pool payload carries.  A calibration that fails ships
        nothing, so its dependents calibrate themselves as they would
        without it.  Calibrations stay out of the :class:`BatchStats`
        counts (their execution time still counts as busy time): they
        show as ``calibrate:`` spans and as progress ticks that name
        them without moving the cell count.
        """
        calibrations = getattr(job, "calibrations", None)
        if calibrations is None:
            return ()
        try:
            listed = [calibration.resolved()
                      for calibration in calibrations()]
        except Exception:  # noqa: BLE001
            return ()  # e.g. an unknown workload: the job raises it
        pairs = []
        for calibration in listed:
            key = job_token(calibration)
            if key not in values:
                value = self._lookup(key, CalibrationJob)
                if value is _MISS:
                    started = (_obs_spans.now_us(), perf_counter())
                    try:
                        _maybe_inject_fault(calibration, 0)
                        value = calibration.execute()
                    except Exception:  # noqa: BLE001
                        value = _MISS  # dependents calibrate themselves
                    monitor.calibrated(
                        calibration,
                        "failed" if value is _MISS else "computed",
                        started)
                    if value is not _MISS:
                        self._store(key, CalibrationJob, value)
                values[key] = value
            if values[key] is not _MISS:
                pairs.append((calibration, values[key]))
        from repro.sim import runner
        runner.prime_calibrations(pairs)
        return tuple(pairs)

    def _run_serial(self, items: List[Tuple[Optional[str], Any]],
                    retries: int, monitor: _BatchMonitor,
                    calibrated: Dict[str, Any],
                    attempts: Optional[Dict[str, int]] = None
                    ) -> List[Any]:
        """In-process execution with retries: the serial path, the pool
        fallback, and the path of every untokened job.

        ``items`` are ``(token or None, job)`` pairs; returns each
        item's result or :class:`JobFailure`.  A tokened result is
        stored and counted as computed; an untokened one is neither.
        ``calibrated`` is the batch's calibrations so far (see
        :meth:`_calibrate`).
        """
        outcomes: List[Any] = []
        for token, job in items:
            self._calibrate(job, calibrated, monitor)
            attempt = attempts.get(token, 0) if attempts else 0
            monitor.job_started(token)
            exec_s = 0.0
            while True:
                t0 = perf_counter()
                try:
                    _maybe_inject_fault(job, attempt)
                    result = job.execute()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:  # noqa: BLE001
                    exec_s += perf_counter() - t0
                    attempt += 1
                    if attempt > retries:
                        result = self._failure_for(job, token, error,
                                                   attempt)
                        if token is not None:
                            monitor.failures[token] = result
                        monitor.cell_done(token, job, "failed",
                                          attempt, exec_s=exec_s)
                        break
                    monitor.retried += 1
                    continue
                exec_s += perf_counter() - t0
                if token is not None:
                    self._store(token, type(job), result)
                    monitor.computed += 1
                monitor.cell_done(
                    token, job,
                    "retried" if attempt else "computed",
                    attempt + 1, exec_s=exec_s)
                break
            outcomes.append(result)
        return outcomes

    def _run_pool(self, unique: List[Tuple[str, Any]], workers: int,
                  retries: int, timeout: Optional[float],
                  monitor: _BatchMonitor,
                  calibrated: Dict[str, Any]) -> None:
        """Per-job-future fan-out with retries, timeout, and recovery.

        Each pending job is an individual ``submit()`` future harvested
        in submission order.  A job that raises in its worker is
        resubmitted (up to ``retries`` times) into the same pool; a
        per-job timeout or a ``BrokenProcessPool`` tears the pool down
        -- after draining every already-finished future into the cache
        -- and rebuilds it for the remaining jobs.  A pool that keeps
        breaking (``_MAX_POOL_REBUILDS``) degrades to serial in-process
        execution of whatever is left.  Each payload carries the
        calibration values its job reads (see :meth:`_calibrate`).
        """
        env = _pool_env_overrides()
        want_profile = _profile._ACTIVE is not None
        pending: "OrderedDict[str, Any]" = OrderedDict(unique)
        attempts: Dict[str, int] = {token: 0 for token, _ in unique}
        stalls: Dict[str, int] = {}
        breaks = 0
        while pending:
            pool = self._make_pool(workers)
            abandon_pool = False

            def submit(token: str):
                job = pending[token]
                pairs = self._calibrate(job, calibrated, monitor)
                monitor.job_started(token)
                return pool.submit(
                    _execute_job,
                    (job, env, want_profile, attempts[token], pairs))

            try:
                queue = deque(
                    (token, submit(token)) for token in pending)
            except BrokenProcessPool:
                queue = deque()
                abandon_pool = True
            try:
                while queue:
                    token, future = queue.popleft()
                    job = pending[token]
                    try:
                        result, prof_dict, exec_s = future.result(
                            timeout=timeout)
                    except FuturesTimeoutError:
                        if future.cancel():
                            # Never started: the pool is merely
                            # saturated, so the wait was queue time,
                            # not execution time.  Requeue without
                            # consuming an attempt (bounded).
                            stalls[token] = stalls.get(token, 0) + 1
                            if stalls[token] <= self._MAX_QUEUE_STALLS:
                                queue.append((token, submit(token)))
                                continue
                        attempts[token] += 1
                        monitor.timed_out += 1
                        if attempts[token] > retries:
                            monitor.failures[token] = self._failure_for(
                                job, token, None, attempts[token],
                                timed_out=True)
                            del pending[token]
                            monitor.cell_done(token, job, "timed-out",
                                              attempts[token])
                        else:
                            monitor.retried += 1
                        # The worker behind this future may be wedged;
                        # abandon the pool so it cannot hold the batch.
                        abandon_pool = True
                        break
                    except BrokenProcessPool:
                        abandon_pool = True
                        break
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as error:  # noqa: BLE001
                        attempts[token] += 1
                        if attempts[token] > retries:
                            monitor.failures[token] = self._failure_for(
                                job, token, error, attempts[token])
                            del pending[token]
                            monitor.cell_done(token, job, "failed",
                                              attempts[token])
                        else:
                            monitor.retried += 1
                            try:
                                queue.append((token, submit(token)))
                            except BrokenProcessPool:
                                abandon_pool = True
                                break
                        continue
                    self._complete(token, job, result, prof_dict,
                                   monitor, exec_s, attempts[token] + 1)
                    del pending[token]
                if abandon_pool:
                    # Keep every sibling that did finish: drain any
                    # completed future before discarding the pool.
                    for token, future in queue:
                        if token not in pending or not future.done():
                            continue
                        try:
                            result, prof_dict, exec_s = \
                                future.result(timeout=0)
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except BaseException:  # noqa: BLE001
                            continue  # handled on the next pool
                        self._complete(token, pending[token], result,
                                       prof_dict, monitor, exec_s,
                                       attempts[token] + 1)
                        del pending[token]
            finally:
                pool.shutdown(wait=not abandon_pool,
                              cancel_futures=True)
            if not pending:
                return
            if abandon_pool:
                breaks += 1
                monitor.pool_rebuilds += 1
                if breaks > self._MAX_POOL_REBUILDS:
                    # The pool keeps dying under us; finish what is
                    # left serially in-process, where a raised
                    # exception is at least catchable.
                    items = list(pending.items())
                    pending.clear()
                    self._run_serial(items, retries, monitor,
                                     calibrated, attempts=attempts)
                    return

    def _publish_failure_metrics(self, batch: BatchStats) -> None:
        """Count batch failures into the active metrics registry."""
        registry = _obs_metrics._ACTIVE
        if registry is None:
            return
        if batch.failed:
            registry.counter("session.jobs_failed").inc(batch.failed)
        if batch.retried:
            registry.counter("session.jobs_retried").inc(batch.retried)
        if batch.timed_out:
            registry.counter("session.jobs_timed_out").inc(
                batch.timed_out)

    def _publish_batch_metrics(self, batch: BatchStats) -> None:
        """Publish cache/pool gauges into the *session-local* registry.

        These land in :attr:`obs`, never the scoped ``repro.obs``
        registry, because hit rate and utilization depend on cache
        state and wall clock -- folding them into the scoped registry
        would break the serial-vs-pool snapshot identity guarantee.
        """
        registry = self.obs
        registry.counter("session.jobs_submitted").inc(batch.submitted)
        registry.counter("session.cache_hits").inc(batch.cache_hits)
        registry.counter("session.jobs_computed").inc(batch.computed)
        if batch.failed:
            registry.counter("session.jobs_failed").inc(batch.failed)
        if batch.retried:
            registry.counter("session.jobs_retried").inc(batch.retried)
        if batch.timed_out:
            registry.counter("session.jobs_timed_out").inc(
                batch.timed_out)
        registry.gauge("session.cache.hit_rate").set(
            round(100.0 * batch.hit_rate, 1))
        registry.gauge("session.pool.utilization").set(
            round(100.0 * batch.utilization, 1))
        registry.gauge("session.pool.workers").set(batch.workers)

    def obs_snapshot(self) -> dict:
        """Snapshot of the session-local batch metrics (see :attr:`obs`)."""
        return self.obs.snapshot()

    # -- knob resolution -----------------------------------------------
    def _effective_workers(self, pending_count: int) -> int:
        """Resolve the worker count: session > REPRO_JOBS > 1, capped
        at ``pending_count``.

        ``REPRO_JOBS=auto`` means ``os.cpu_count()``; a malformed value
        warns once and falls back to 1 instead of crashing mid-sweep.
        """
        workers = self.max_workers
        if workers is None:
            workers = env_int("REPRO_JOBS", 1, minimum=1,
                              aliases={"auto": os.cpu_count() or 1})
        return max(1, min(int(workers), max(1, pending_count)))

    def _effective_retries(self) -> int:
        """Resolve max retries: session > REPRO_MAX_RETRIES > 1."""
        retries = self.max_retries
        if retries is None:
            retries = env_int("REPRO_MAX_RETRIES", 1, minimum=0)
        return max(0, int(retries))

    def _effective_timeout(self) -> Optional[float]:
        """Resolve the per-job timeout: session > REPRO_JOB_TIMEOUT >
        none."""
        timeout = self.job_timeout
        if timeout is None:
            timeout = env_float("REPRO_JOB_TIMEOUT", 0.0, minimum=0.0)
        return float(timeout) if timeout and timeout > 0 else None

    # -- cache internals -----------------------------------------------
    def _lookup(self, token: str, job_type: type) -> Any:
        """Memory then disk lookup: the cached result, or ``_MISS``."""
        if token in self._memory:
            result = self._memory[token]
            if not _observability_satisfied(result):
                return _MISS  # cached without requested metrics
            return result
        if self.disk_cache and job_type in _CODECS:
            payload = self._disk_read(token)
            if payload is not None:
                try:
                    result = _CODECS[job_type][1](payload)
                except (TypeError, ValueError, KeyError):
                    return _MISS  # stale/corrupt entry: recompute
                if not _observability_satisfied(result):
                    return _MISS
                self._memory[token] = result
                return result
        return _MISS

    @staticmethod
    def _absorb_observability(result: Any) -> None:
        """Fold a pool result's snapshot/events into the parent sinks."""
        if not isinstance(result, SimResult):
            return
        registry = _obs_metrics._ACTIVE
        if registry is not None and result.metrics:
            registry.merge_snapshot(result.metrics)
        buffer = _obs_trace._ACTIVE
        if buffer is not None and result.trace_events:
            buffer.extend(result.trace_events)
        recorder = _obs_spans._ACTIVE
        if recorder is not None and result.spans:
            recorder.extend(result.spans)

    def _store(self, token: str, job_type: type, result: Any) -> None:
        """Memoise a freshly-computed result (and persist if enabled)."""
        self._memory[token] = result
        if self.disk_cache and job_type in _CODECS \
                and job_type not in self._disk_disabled:
            self._disk_write(token, _CODECS[job_type][0](result),
                             job_type)

    def _entry_path(self, token: str) -> str:
        """Sharded cache path for one token."""
        return os.path.join(self.cache_dir, token[:2], token + ".json")

    def _disk_read(self, token: str) -> Optional[Any]:
        """Load one cache entry's payload, or ``None`` on any failure."""
        try:
            with open(self._entry_path(token), "r") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if entry.get("format") != CACHE_FORMAT:
            return None
        return entry.get("result")

    def _disk_write(self, token: str, payload: Any,
                    job_type: Optional[type] = None) -> None:
        """Atomically persist one cache entry (best-effort).

        A payload ``json.dump`` cannot serialize (a codec bug, or an
        extension job type returning live objects) must not crash the
        run mid-batch: the ``TypeError``/``ValueError`` is swallowed
        like an ``OSError``, the partial ``*.tmp.<pid>`` file is
        unlinked, and -- since every result of that job type will fail
        the same way -- the type degrades to memory-only caching with a
        one-line warning.
        """
        path = self._entry_path(token)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w") as handle:
                json.dump({"format": CACHE_FORMAT, "result": payload},
                          handle)
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as error:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(error, (TypeError, ValueError)) \
                    and job_type is not None:
                self._disk_disabled.add(job_type)
                warnings.warn(
                    f"result of {job_type.__name__} is not "
                    f"JSON-serializable ({error}); disk caching "
                    f"disabled for this job type", stacklevel=2)


# ----------------------------------------------------------------------
# The default session
# ----------------------------------------------------------------------
_DEFAULT_SESSION: Optional[SimSession] = None


def get_default_session() -> SimSession:
    """The process-wide session the experiment planner submits to when
    it is handed none."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = SimSession()
    return _DEFAULT_SESSION


def set_default_session(session: Optional[SimSession]
                        ) -> Optional[SimSession]:
    """Install ``session`` as the default; returns the previous one."""
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous


@contextmanager
def using_session(session: SimSession):
    """Scope ``session`` as the default over a ``with`` block."""
    previous = set_default_session(session)
    try:
        yield session
    finally:
        set_default_session(previous)
