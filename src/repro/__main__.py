"""Command-line entry point.

Usage::

    python -m repro list                   # every exhibit, paper order
    python -m repro run table7             # one exhibit + its checks
    python -m repro run fig11 table8       # several, as one batch
    python -m repro report [path]          # run everything -> markdown
    python -m repro report --only fig11,table6   # a subset
    python -m repro report --jobs 8        # ... on 8 worker processes

    python -m repro run tc --setup mirza --trace-out trace.json
                                           # one simulation + Perfetto
    python -m repro stats                  # metrics table (tc / mirza)
    python -m repro stats mcf --setup prac-1000
    python -m repro trace --trace-limit 50000

    python -m repro fuzz                   # seeded attack-pattern sweep
    python -m repro fuzz --mitigations trr,mirza-1000 --budget 8
                                           # smaller sweep; same seed =>
                                           # bit-identical report, cells
                                           # cache-hit on rerun

    python -m repro trace convert tc.dramsim3 tc.trace \\
        --workload tc --instructions 11    # ingest an external trace
    python -m repro run tc.trace --setup mirza
                                           # replay it, with the
                                           # calibration check printed

Bare exhibit names still work (``python -m repro table7`` is shorthand
for ``python -m repro run table7``).

Every subcommand accepts the shared simulation flags (``--jobs``,
``--time-scale``, ``--cgf-scale``, ``--workloads``, ``--seed``,
``--cache-dir``, ``--no-cache``, ``--profile``), the
observability
flags (``--metrics``, ``--trace-out``, ``--trace-limit``; see
``docs/observability.md``), and the failure-handling flags
(``--keep-going``/``--fail-fast``, ``--max-retries N``,
``--job-timeout SECONDS``; see the "Failure semantics" section of
``docs/architecture.md``).  ``report`` defaults to ``--keep-going``:
a permanently-failed cell marks its exhibit DEGRADED in the rendered
markdown instead of aborting the run, and completed cells are cached
as they finish so a rerun resumes from where the last one stopped.
Every other subcommand defaults to ``--fail-fast``, which raises after
storing the completed sibling results.  The ``REPRO_*`` environment
variables remain as fallbacks; an explicit flag always wins over the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional

from repro.report import EXHIBITS, write_report
from repro.sim.session import FailurePolicy, SimSession

_SUBCOMMANDS = ("list", "run", "report", "stats", "trace", "fuzz")

_DEFAULT_SIM_WORKLOAD = "tc"
_DEFAULT_SIM_SETUP = "mirza-1000"

_ENV_FLAGS = [
    # (argparse dest, environment variable the flag overrides)
    ("time_scale", "REPRO_TIME_SCALE"),
    ("cgf_scale", "REPRO_CGF_SCALE"),
    ("workloads", "REPRO_WORKLOADS"),
    ("seed", "REPRO_SEED"),
]


def _positive_int(text: str) -> int:
    """argparse type for a window divisor: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (three subcommands, shared flags)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables and figures. "
                    "Subcommands: list, run, report.")
    sub = parser.add_subparsers(dest="command")

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", "-j", type=int, default=None, metavar="N",
            help="worker processes for simulation sweeps "
                 "(default: REPRO_JOBS or 1)")
        p.add_argument(
            "--time-scale", type=_positive_int, default=None,
            metavar="S",
            help="window divisor for timed simulation "
                 "(default: REPRO_TIME_SCALE or 512)")
        p.add_argument(
            "--cgf-scale", type=_positive_int, default=None,
            metavar="S",
            help="window divisor for counting measurements "
                 "(default: REPRO_CGF_SCALE or 16)")
        p.add_argument(
            "--workloads", default=None, metavar="A,B,...",
            help="comma-separated workload subset, or 'all' "
                 "(default: REPRO_WORKLOADS or the built-in subset)")
        p.add_argument(
            "--seed", type=int, default=None, metavar="N",
            help="base RNG seed (default: REPRO_SEED or 0)")
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="persistent result-cache directory "
                 "(default: REPRO_CACHE_DIR; unset disables the disk "
                 "cache unless REPRO_CACHE_DIR is set)")
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the on-disk result cache for this run")
        policy = p.add_mutually_exclusive_group()
        policy.add_argument(
            "--keep-going", action="store_true",
            help="a permanently-failed job yields a typed JobFailure "
                 "(a DEGRADED exhibit in reports) instead of aborting "
                 "the batch (default for `report`)")
        policy.add_argument(
            "--fail-fast", action="store_true",
            help="raise on the first permanently-failed job, after "
                 "storing every completed sibling result (default "
                 "for every subcommand except `report`)")
        p.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help="re-executions per failed job; retried jobs re-run "
                 "the same pure content, so results stay bit-identical "
                 "(default: REPRO_MAX_RETRIES or 1)")
        p.add_argument(
            "--job-timeout", type=float, default=None, metavar="SEC",
            help="per-job seconds budget in the worker pool; a "
                 "timed-out job consumes a retry and its pool is "
                 "rebuilt (default: REPRO_JOB_TIMEOUT or none)")
        p.add_argument(
            "--profile", action="store_true",
            help="profile the simulation kernel and print a per-phase "
                 "breakdown when the command finishes; with --jobs N "
                 "the workers' profiles are merged into the totals "
                 "(REPRO_PROFILE=1 works too)")
        p.add_argument(
            "--metrics", action="store_true",
            help="collect the kernel metrics registry over every "
                 "simulation and print the aggregated table afterwards "
                 "(REPRO_METRICS=1 works too)")
        p.add_argument(
            "--trace-out", default=None, metavar="FILE",
            help="record structured events and write a Perfetto-"
                 "loadable Chrome trace to FILE (enables REPRO_TRACE)")
        p.add_argument(
            "--trace-limit", type=int, default=None, metavar="N",
            help="ring-buffer capacity for event tracing "
                 "(default: REPRO_TRACE_LIMIT or 200000)")
        p.add_argument(
            "--progress", action="store_true",
            help="print a live progress line (cells done/total, cache "
                 "hit-rate, retries, ETA) to stderr while the batch "
                 "runs")

    p_list = sub.add_parser(
        "list", help="print every exhibit's name, title and description")
    add_shared(p_list)

    p_run = sub.add_parser(
        "run", help="run the named exhibits as one batch and print their "
                    "tables with their paper checks, or (with --setup) "
                    "simulate the named workloads")
    p_run.add_argument("exhibits", nargs="*", metavar="exhibit",
                       help="exhibit names, e.g. table7 fig11; with "
                            "--setup: workload names, e.g. tc mcf")
    p_run.add_argument(
        "--setup", default=None, metavar="SETUP",
        help="simulate the positional names as *workloads* under this "
             "mitigation setup (e.g. mirza, prac-1000, baseline) "
             "instead of treating them as exhibits")
    add_shared(p_run)

    p_report = sub.add_parser(
        "report", help="run every exhibit and write a markdown report")
    p_report.add_argument("path", nargs="?",
                          default="EXPERIMENTS.generated.md",
                          help="output file "
                               "(default: EXPERIMENTS.generated.md)")
    p_report.add_argument(
        "--only", default=None, metavar="A,B,...",
        help="restrict the report to these comma-separated exhibits "
             "(e.g. --only fig11,table6)")
    add_shared(p_report)

    p_stats = sub.add_parser(
        "stats", help="simulate with metrics collection and print the "
                      "aggregated metrics table")
    p_stats.add_argument("targets", nargs="*", metavar="workload",
                         default=[_DEFAULT_SIM_WORKLOAD],
                         help=f"workload names (default: "
                              f"{_DEFAULT_SIM_WORKLOAD})")
    p_stats.add_argument("--setup", default=_DEFAULT_SIM_SETUP,
                         metavar="SETUP",
                         help=f"mitigation setup (default: "
                              f"{_DEFAULT_SIM_SETUP})")
    add_shared(p_stats)

    p_trace = sub.add_parser(
        "trace", help="simulate with event tracing and write a "
                      "Perfetto-loadable Chrome trace")
    p_trace.add_argument("targets", nargs="*", metavar="workload",
                         default=[_DEFAULT_SIM_WORKLOAD],
                         help=f"workload names (default: "
                              f"{_DEFAULT_SIM_WORKLOAD})")
    p_trace.add_argument("--setup", default=_DEFAULT_SIM_SETUP,
                         metavar="SETUP",
                         help=f"mitigation setup (default: "
                              f"{_DEFAULT_SIM_SETUP})")
    p_trace.add_argument("--jsonl-out", default=None, metavar="FILE",
                         help="also write the raw events as JSON-lines")
    add_shared(p_trace)

    p_fuzz = sub.add_parser(
        "fuzz", help="sweep seeded fuzzed attack patterns against "
                     "mitigations and rank max per-row escapes")
    p_fuzz.add_argument(
        "--mitigations", default=None, metavar="A,B,...",
        help="comma-separated fuzz mitigation names, e.g. "
             "trr,prac-1000,mirza-1000 (the default)")
    p_fuzz.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="fuzzed patterns per sweep; each also runs against every "
             "mitigation (default: 16)")
    p_fuzz.add_argument(
        "--acts", type=int, default=None, metavar="N",
        help="attacker ACTs per cell (default: a full refresh window "
             "divided by the time scale, floored at 12000)")
    p_fuzz.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="ranked escapes printed per mitigation (default: 5)")
    add_shared(p_fuzz)
    return parser


@contextlib.contextmanager
def _environment(args: argparse.Namespace) -> Iterator[None]:
    """Apply flag overrides to the ``REPRO_*`` environment and restore
    the previous values on exit, so flags beat the environment without
    leaking into the calling process state."""
    saved = {}
    overrides = {var: getattr(args, dest, None)
                 for dest, var in _ENV_FLAGS}
    if getattr(args, "metrics", False):
        overrides["REPRO_METRICS"] = "1"
    if getattr(args, "trace_out", None):
        overrides["REPRO_TRACE"] = "1"
        # A Perfetto trace carries the session/worker span tracks too.
        overrides["REPRO_SPANS"] = "1"
    if getattr(args, "trace_limit", None):
        overrides["REPRO_TRACE_LIMIT"] = getattr(args, "trace_limit")
    try:
        for var, value in overrides.items():
            if value is None:
                continue
            saved[var] = os.environ.get(var)
            os.environ[var] = str(value)
        yield
    finally:
        for var, previous in saved.items():
            if previous is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = previous


def _session_for(args: argparse.Namespace) -> SimSession:
    """Build the session the chosen subcommand will submit jobs to.

    Failure policy: an explicit ``--keep-going``/``--fail-fast`` wins;
    otherwise ``report`` keeps going (one poisoned cell degrades a
    report, it doesn't destroy it) and everything else fails fast.
    """
    if getattr(args, "keep_going", False):
        policy = FailurePolicy.KEEP_GOING
    elif getattr(args, "fail_fast", False):
        policy = FailurePolicy.FAIL_FAST
    elif getattr(args, "command", None) == "report":
        policy = FailurePolicy.KEEP_GOING
    else:
        policy = FailurePolicy.FAIL_FAST
    progress = None
    if getattr(args, "progress", False):
        from repro.obs.progress import ProgressLine
        progress = ProgressLine()
    return SimSession(
        cache_dir=getattr(args, "cache_dir", None),
        disk_cache=False if getattr(args, "no_cache", False) else None,
        max_workers=getattr(args, "jobs", None),
        failure_policy=policy,
        max_retries=getattr(args, "max_retries", None),
        job_timeout=getattr(args, "job_timeout", None),
        progress=progress)


def _is_trace_target(name: str) -> bool:
    """Path-shaped simulation target: a trace file, not a workload."""
    return (os.path.sep in name or name.endswith(".trace")
            or name.endswith(".gz") or os.path.isfile(name))


def _run_simulations(args: argparse.Namespace,
                     session: SimSession) -> int:
    """Simulate ``args.targets`` under ``args.setup`` and emit whatever
    observability output the flags asked for (metrics table, Chrome
    trace, JSON-lines events).

    Path-shaped targets are replayed as ingested traces
    (:class:`~repro.sim.session.TraceReplayJob`); when such a trace
    carries a ``# workload:`` claim, the measured-vs-Table-IV
    calibration rows are printed after the summary line.
    """
    from repro.experiments.common import default_scale, default_seed
    from repro.sim.registry import setup_by_name
    from repro.sim.session import SimJob, TraceReplayJob, is_failure

    scale = default_scale()
    seed = default_seed()
    try:
        setup = setup_by_name(args.setup, scale)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    targets = list(getattr(args, "targets", None)
                   or getattr(args, "exhibits"))
    try:
        jobs = [TraceReplayJob.for_path(name, setup, scale, seed)
                if _is_trace_target(name)
                else SimJob(name, setup, scale, seed)
                for name in targets]
    except OSError as error:
        print(f"trace target: {error}", file=sys.stderr)
        return 2
    trace_out = getattr(args, "trace_out", None)
    recorder = None
    if trace_out:
        # Record session/worker spans parent-side so the Chrome trace
        # carries the batch-execution tracks next to the kernel lanes.
        from repro.obs import spans as obs_spans
        with obs_spans.recording() as recorder:
            results = session.run_many(jobs)
    else:
        results = session.run_many(jobs)
    status = 0

    for name, job, result in zip(targets, jobs, results):
        if is_failure(result):
            print(f"{name}: FAILED — {result.describe()}",
                  file=sys.stderr)
            status = 1
            continue
        ipc = sum(result.ipc) / len(result.ipc) if result.ipc else 0.0
        print(f"{name}: setup={args.setup} requests="
              f"{result.total_requests} acts={result.total_activations}"
              f" row-hit={result.row_hit_rate:.3f} mean-ipc={ipc:.3f}")
        if isinstance(job, TraceReplayJob) and job.workload:
            from repro.workloads.specs import workload_by_name
            from repro.workloads.tracefile import calibration_report
            try:
                spec = workload_by_name(job.workload)
            except KeyError:
                print(f"{name}: claims unknown workload "
                      f"{job.workload!r}; skipping calibration",
                      file=sys.stderr)
                continue
            for label, measured, paper, ok in \
                    calibration_report(result, spec):
                print(f"calibration[{job.workload}]: {label} "
                      f"measured {measured:.1f}, paper {paper} -> "
                      f"{'ok' if ok else 'DEV'}")
    results = [r for r in results if not is_failure(r)]

    snapshots = [r.metrics for r in results if r.metrics]
    if snapshots:
        from repro.obs import merge_snapshots, render_metrics_report
        # The session-local batch gauges (cache hit-rate, pool
        # utilization, queue depth) ride along in the same table.
        merged = merge_snapshots(snapshots + [session.obs_snapshot()])
        print()
        print(render_metrics_report(merged))
    elif getattr(args, "command", None) == "stats":
        print("stats: no metrics were recorded (every job failed or "
              "was skipped); nothing to report", file=sys.stderr)
        return 3

    if trace_out:
        from repro.obs import export as obs_export
        events = []
        for result in results:
            events.extend(result.trace_events or [])
        spans = recorder.as_list() if recorder is not None else None
        obs_export.write_chrome_trace(events, trace_out, spans=spans)
        print(f"wrote {len(events)} events and "
              f"{len(spans or [])} spans to {trace_out} "
              f"(load in https://ui.perfetto.dev)", file=sys.stderr)
        jsonl_out = getattr(args, "jsonl_out", None)
        if jsonl_out:
            obs_export.write_jsonl(events, jsonl_out)
            print(f"wrote JSONL events to {jsonl_out}", file=sys.stderr)
    return status


@contextlib.contextmanager
def _trace_capture(trace_out):
    """Scope kernel tracing + span recording over a block and write the
    merged Chrome trace to ``trace_out`` on clean exit.  A no-op scope
    when ``trace_out`` is falsy."""
    if not trace_out:
        yield
        return
    from repro.obs import export as obs_export
    from repro.obs import spans as obs_spans
    from repro.obs import trace as obs_trace
    with obs_trace.tracing() as buf, obs_spans.recording() as rec:
        yield
    obs_export.write_chrome_trace(buf.as_list(), trace_out,
                                  spans=rec.as_list())
    print(f"wrote {len(buf)} events and {len(rec.spans)} spans to "
          f"{trace_out} (load in https://ui.perfetto.dev)",
          file=sys.stderr)


def _trace_convert(argv: List[str]) -> int:
    """The ``repro trace convert`` verb: external trace -> native.

    Handled before the argparse tree because ``trace`` is otherwise
    the Perfetto-tracing subcommand; ``trace convert`` is the only
    form with a second positional verb, so the dispatch is
    unambiguous.
    """
    from repro.workloads.tracefile import TRACE_FORMATS, convert_trace

    parser = argparse.ArgumentParser(
        prog="repro trace convert",
        description="Convert an external memory trace (DRAMSim3 "
                    "command trace, litex row list) into the native "
                    "replayable format.  '.gz' inputs and outputs "
                    "are compressed transparently.")
    parser.add_argument("input", help="source trace file")
    parser.add_argument("output", help="native trace to write")
    parser.add_argument(
        "--format", default="auto", metavar="FMT",
        choices=("auto",) + TRACE_FORMATS,
        help="input format: auto (from the suffix), native, "
             "dramsim3, or litex-rows (default: auto)")
    parser.add_argument(
        "--workload", default=None, metavar="NAME",
        help="Table IV spec this trace claims to represent; recorded "
             "as '# workload:' metadata for the calibration check")
    parser.add_argument(
        "--instructions", type=int, default=1, metavar="N",
        help="instructions attributed to each miss (Table IV: "
             "round(1000 / L3-MPKI); default: 1)")
    parser.add_argument(
        "--cycle-ps", type=int, default=None, metavar="PS",
        help="picoseconds per trace cycle for dramsim3 timestamps "
             "(default: 833, i.e. a 1.2 GHz command clock)")
    parser.add_argument(
        "--bank", type=int, default=0, metavar="N",
        help="bank for litex-rows entries (default: 0)")
    parser.add_argument(
        "--subchannel", type=int, default=0, metavar="N",
        help="subchannel for litex-rows entries (default: 0)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)
    kwargs = {}
    if args.cycle_ps is not None:
        kwargs["cycle_ps"] = args.cycle_ps
    try:
        count = convert_trace(
            args.input, args.output, fmt=args.format,
            workload=args.workload, instructions=args.instructions,
            bank=args.bank, subchannel=args.subchannel, **kwargs)
    except (OSError, ValueError) as error:
        print(f"trace convert: {error}", file=sys.stderr)
        return 2
    claim = f" (workload: {args.workload})" if args.workload else ""
    print(f"wrote {count} entries to {args.output}{claim}")
    return 0


def _run_fuzz(args: argparse.Namespace, session: SimSession) -> int:
    """The ``repro fuzz`` verb: a seeded attack-parameter sweep.

    The report on stdout is a pure function of the spec (seed, budget,
    acts, mitigations): rerunning with the same flags prints a
    bit-identical ranking, with every cell served from the cache.
    Batch statistics go to stderr so they never perturb that contract.
    """
    from repro.experiments.common import default_scale, default_seed
    from repro.security.fuzz import FuzzSpec, default_acts, run_fuzz

    kwargs = dict(seed=default_seed(),
                  acts=(args.acts if args.acts is not None
                        else default_acts(default_scale().time_scale)))
    if args.mitigations:
        kwargs["mitigations"] = tuple(
            name for name in args.mitigations.split(",") if name)
    if args.budget is not None:
        kwargs["budget"] = args.budget
    spec = FuzzSpec(**kwargs)
    report = run_fuzz(spec, session=session)
    print(report.render(top=args.top))
    batch = session.last_batch
    if batch is not None:
        print(f"fuzz: {batch.submitted} cells, {batch.unique} unique, "
              f"{batch.cache_hits} from cache", file=sys.stderr)
    return 1 if report.failed else 0


def _run_experiments(names: List[str], session: SimSession) -> int:
    """Plan the named experiment declarations as one deduplicated
    batch, then print each rendered table with its declared
    paper-reference checks and claims and the plan's dedup
    statistics."""
    from repro.experiments import framework

    try:
        plan = framework.plan(names, session=session)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    plan.execute()
    wanted = {framework.canonical_name(n) for n in names}
    for experiment in plan.experiments():
        if framework.canonical_name(experiment.name) not in wanted:
            continue  # dependency pulled in by `needs`, not asked for
        result = plan.results[experiment.name]
        print(framework.render_experiment(experiment, result))
        for dev in framework.evaluate_checks(experiment, result):
            print(f"  {dev.flag}: {dev.label} — measured "
                  f"{dev.measured:g}, paper {dev.paper:g}")
        for claim in framework.evaluate_claims(experiment, result):
            print(f"  {claim.flag}: {claim.label} — {claim.outcome}")
        print()
    stats = plan.stats
    line = (f"planned {stats.planned_cells} cells -> "
            f"{stats.unique_jobs} unique jobs "
            f"({stats.deduplicated} deduplicated) in "
            f"{plan.wall_time:.1f}s")
    batch = plan.batch
    if batch is not None and (batch.failed or batch.retried
                              or batch.timed_out):
        line += (f"; {batch.failed} failed, {batch.retried} retried, "
                 f"{batch.timed_out} timed out")
    print(line, file=sys.stderr)
    return 1 if plan.degraded() else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch the CLI arguments; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__)
        return 0
    if argv[0] == "help":
        argv[0] = "--help"
    if argv[:2] == ["trace", "convert"]:
        return _trace_convert(argv[2:])
    # Back-compat: a bare exhibit name is shorthand for `run <name>`.
    if argv[0] not in _SUBCOMMANDS and not argv[0].startswith("-"):
        argv.insert(0, "run")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return int(error.code or 0)
    # `stats` is `run` with metrics forced on; `trace` defaults the
    # Chrome-trace destination so a bare `python -m repro trace` works.
    if args.command == "stats":
        args.metrics = True
    elif args.command == "trace" and not args.trace_out:
        args.trace_out = "trace.json"
    with _environment(args), contextlib.ExitStack() as stack:
        session = _session_for(args)
        if session.progress is not None \
                and hasattr(session.progress, "close"):
            stack.callback(session.progress.close)
        if args.command == "list":
            for title, description, name in EXHIBITS:
                print(f"{name}: {title} — {description}")
            return 0
        from repro.sim.profile import maybe_profile_from_env
        from repro.sim.session import JobFailed
        with maybe_profile_from_env(
                force=getattr(args, "profile", False)) as prof:
            status = 0
            try:
                if args.command == "report":
                    only = getattr(args, "only", None)
                    only = ([n for n in only.split(",") if n.strip()]
                            if only else None)
                    with _trace_capture(
                            getattr(args, "trace_out", None)):
                        write_report(args.path, only=only,
                                     session=session)
                elif args.command == "fuzz":
                    status = _run_fuzz(args, session)
                elif args.command == "run" and not args.exhibits:
                    noun = "workload" if args.setup else "exhibit"
                    print(f"run: name at least one {noun}",
                          file=sys.stderr)
                    return 2
                elif args.command in ("stats", "trace") or (
                        args.command == "run" and args.setup):
                    status = _run_simulations(args, session)
                else:
                    with _trace_capture(
                            getattr(args, "trace_out", None)):
                        status = _run_experiments(args.exhibits, session)
            except JobFailed as error:
                # fail_fast: completed siblings are already cached, so
                # a rerun resumes from where this batch died.
                print(f"error: {error.failure.describe()}",
                      file=sys.stderr)
                print("(completed jobs were cached; rerun to resume, "
                      "or pass --keep-going to degrade instead of "
                      "aborting)", file=sys.stderr)
                return 1
        if prof is not None:
            print(prof.report(), file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
