"""Declarative experiment framework: declaration -> plan -> reduce.

Every table/figure in this repository is an :class:`Experiment`
*declaration*: a grid of :class:`Cell` jobs (``SimJob``, ``CgfJob``,
``SubarrayStatsJob``, or any session-runnable job type), a pure
``reduce(cells) -> Result`` that folds the cell results into the
module's structured result object, a render schema (usually a
:class:`TableSpec`), the paper's reference values with declared
tolerances (:class:`Check`), and the paper's claims about the
result's shape (:class:`Claim`).  Declarations register themselves in
a process-wide registry mirroring :mod:`repro.sim.registry`.

The payoff is the **planner**: :func:`plan` flattens the grids of any
set of experiments -- plus their declared dependencies (``needs``) --
into one job list, derives the unprotected baselines slowdown cells
need, and submits the whole thing as a *single*
:meth:`~repro.sim.session.SimSession.run_many` batch.  Cells shared
between experiments (the PRAC runs of Figure 3 and Figure 11, the
baselines nearly every experiment references) are keyed by the
session's content tokens and therefore planned exactly once.  Counting
cells go further: every ``CgfJob``/``SubarrayStatsJob`` cell that reads
the same row stream is answered by one merged ``CgfJob``, so a report
generates each stream once.  Results fan back out to each experiment's
reducer in dependency order.

Example -- a complete experiment in ~30 lines::

    from repro.experiments import framework
    from repro.sim.runner import mirza_setup
    from repro.sim.session import SimJob

    def _grid(ctx):
        scale = ctx.timed_scale()
        return [framework.Cell(spec.name,
                               SimJob(spec, mirza_setup(1000, scale),
                                      scale, ctx.run_seed()),
                               slowdown=True)
                for spec in ctx.specs()]

    def _reduce(cells):
        return {spec.name: cells[spec.name][0]
                for spec in cells.ctx.specs()}

    EXPERIMENT = framework.Experiment(
        name="demo", title="Demo", description="MIRZA-1K slowdowns",
        grid=_grid, reduce=_reduce,
        render=framework.TableSpec(
            title="Demo", columns=("Workload", "Slowdown"),
            rows=lambda r: [[n, f"{s:.2f}%"] for n, s in r.items()]))
    framework.register_experiment(EXPERIMENT)

Reducers must be **pure**: the same cell values must produce the same
Result bit for bit, regardless of worker count or cache state.  That
is what lets the planner serve a cell computed for one experiment to
every other experiment that declares it.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.params import SimScale
from repro.sim.session import (
    BatchStats,
    JobFailure,
    SimSession,
    get_default_session,
    is_failure,
    job_token,
)
from repro.workloads.specs import WorkloadSpec


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Context:
    """Resolved runtime knobs an experiment grid is built against.

    ``None`` fields fall back to the environment defaults
    (``REPRO_WORKLOADS``, ``REPRO_TIME_SCALE``, ``REPRO_CGF_SCALE``,
    ``REPRO_SEED``) at *use* time, so a default ``Context`` is cheap to
    build and always reflects the current environment.  ``options``
    carries per-experiment overrides (threshold sweeps, queue sizes,
    ...) as a frozen, hashable key/value tuple; contexts are compared
    by value so the planner can recognise "same experiment, same
    knobs" across dependency edges.
    """

    workloads: Optional[Tuple[str, ...]] = None
    scale: Optional[SimScale] = None
    cgf: Optional[SimScale] = None
    seed: Optional[int] = None
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, workloads: Optional[Sequence[str]] = None,
             scale: Optional[SimScale] = None,
             cgf: Optional[SimScale] = None,
             seed: Optional[int] = None,
             **options: Any) -> "Context":
        """Build a context; keyword extras become ``options`` entries."""
        if workloads is not None:
            workloads = tuple(
                spec.name if isinstance(spec, WorkloadSpec) else spec
                for spec in workloads)
        return cls(workloads=workloads, scale=scale, cgf=cgf, seed=seed,
                   options=tuple(sorted(
                       (key, value) for key, value in options.items()
                       if value is not None)))

    def specs(self) -> List[WorkloadSpec]:
        """The workload list this context selects."""
        from repro.experiments.common import selected_workloads
        return selected_workloads(self.workloads)

    def timed_scale(self) -> SimScale:
        """Window divisor for timed simulation cells."""
        from repro.experiments.common import default_scale
        return self.scale if self.scale is not None else default_scale()

    def counting_scale(self) -> SimScale:
        """Window divisor for activation-counting cells."""
        from repro.experiments.common import cgf_scale
        return self.cgf if self.cgf is not None else cgf_scale()

    def run_seed(self) -> int:
        """Base RNG seed for the context's cells."""
        from repro.experiments.common import default_seed
        return self.seed if self.seed is not None else default_seed()

    def opt(self, key: str, default: Any = None) -> Any:
        """Look up a per-experiment option with a declared default."""
        for name, value in self.options:
            if name == key:
                return value
        return default


# ----------------------------------------------------------------------
# Declaration pieces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One planned measurement of an experiment's grid.

    ``key`` names the cell within its experiment (any hashable; the
    reducer indexes results by it).  ``job`` is a session-runnable job.
    ``slowdown=True`` asks the planner to derive and batch the matching
    unprotected baseline and deliver ``(slowdown_pct, result)`` instead
    of the bare result -- exactly the
    :meth:`~repro.sim.session.SimSession.slowdowns` contract.
    """

    key: Any
    job: Any
    slowdown: bool = False


@dataclass(frozen=True)
class Check:
    """One paper-reference comparison with a declared tolerance.

    The reproduction *deviates* on this check when the measured value
    sits further from ``paper`` than ``max(abs_tol, rel_tol * |paper|)``.
    Tolerances are declarative documentation of the expected
    scale-induced spread, not assertions -- the report flags them, it
    never fails on them.
    """

    label: str
    paper: float
    measured: Callable[[Any], float]
    rel_tol: float = 0.5
    abs_tol: float = 0.0


def near(measured: float, paper: float, rel_tol: float = 0.0,
         abs_tol: float = 0.0) -> bool:
    """True when ``measured`` is within ``max(abs_tol, rel_tol *
    |paper|)`` of ``paper`` -- the tolerance rule of :class:`Check`."""
    return abs(measured - paper) <= max(abs_tol, rel_tol * abs(paper))


@dataclass(frozen=True)
class Claim:
    """One of the paper's claims about the shape of an exhibit's Result.

    Most of the paper's results are orderings -- MIRZA below PRAC at
    every threshold, the saving over MINT growing as TRHD relaxes --
    which a point :class:`Check` cannot express.  ``label`` states the
    claim in words and ``holds(result)`` decides it.  Claims render
    beside the checks but stay out of :func:`evaluate_checks`, so they
    never enter a paper-error average.
    """

    label: str
    holds: Callable[[Any], bool]


@dataclass(frozen=True)
class Deviation:
    """An evaluated :class:`Check`: measured vs paper, flagged.

    ``degraded=True`` marks a check that could not be evaluated at all
    because the exhibit's cells failed (see :class:`DegradedResult`);
    its ``measured`` is NaN and its flag renders as ``DEGRADED``.
    """

    label: str
    measured: float
    paper: float
    within: bool
    degraded: bool = False

    @property
    def flag(self) -> str:
        if self.degraded:
            return "DEGRADED"
        return "ok" if self.within else "DEV"


@dataclass(frozen=True)
class ClaimVerdict:
    """An evaluated :class:`Claim`, flagged like a :class:`Deviation`."""

    label: str
    holds: bool
    degraded: bool = False

    @property
    def outcome(self) -> str:
        if self.degraded:
            return "unevaluated"
        return "holds" if self.holds else "fails"

    @property
    def flag(self) -> str:
        if self.degraded:
            return "DEGRADED"
        return "ok" if self.holds else "DEV"


@dataclass(frozen=True)
class DegradedResult:
    """The Result slot of an exhibit whose cells permanently failed.

    Produced by :meth:`Plan.execute` when a session batch running
    under :obj:`~repro.sim.session.FailurePolicy.KEEP_GOING` returned
    :class:`~repro.sim.session.JobFailure` records for some of the
    exhibit's cells (or their derived baselines), or when a declared
    dependency's Result is itself degraded.  The reducer is *not*
    called -- reducers are pure folds over complete grids -- and the
    report renders this record's failure summary in place of the
    table, flagged ``DEGRADED``, instead of crashing.
    """

    experiment: str
    failures: Tuple[JobFailure, ...] = ()
    missing_cells: Tuple[Any, ...] = ()
    degraded_deps: Tuple[str, ...] = ()

    def summary(self) -> str:
        """Multi-line failure account rendered in place of the table."""
        lines = [f"DEGRADED: {len(self.missing_cells)} cell(s) of "
                 f"{self.experiment!r} failed permanently "
                 f"({', '.join(repr(k) for k in self.missing_cells)})."]
        for failure in self.failures:
            lines.append(f"  - {failure.describe()}")
        for name in self.degraded_deps:
            lines.append(f"  - dependency {name!r} is itself degraded")
        lines.append("Completed sibling cells were cached as they "
                     "finished; a re-run resumes from there.")
        return "\n".join(lines)


def is_degraded(result: Any) -> bool:
    """True when an experiment Result is a :class:`DegradedResult`."""
    return isinstance(result, DegradedResult)


@dataclass(frozen=True, eq=False)
class TableSpec:
    """Declarative render schema: one paper-style table per experiment.

    ``rows`` maps the experiment's Result to the table body;
    ``columns`` and ``title`` feed
    :func:`repro.sim.stats.format_table` unchanged.
    """

    title: str
    columns: Tuple[str, ...]
    rows: Callable[[Any], Sequence[Sequence[Any]]]


Renderer = Union[TableSpec, Callable[[Any], str]]


@dataclass(frozen=True, eq=False)
class Experiment:
    """A declarative table/figure: grid + reduce + render + references.

    ``grid(ctx)`` yields the cell grid (empty for analytic exhibits);
    ``reduce(cells)`` is a pure fold from cell results (and declared
    dependency results, via ``cells.dep(name)``) to the module's Result
    object; ``render`` turns a Result into the paper-style table;
    ``checks`` compare the Result against the paper's numbers and
    ``claims`` test the paper's statements about its shape.
    ``needs`` names experiments whose Results the reducer consumes --
    the planner plans their grids into the same batch, which is where
    cross-experiment cell dedup comes from.
    """

    name: str
    title: str
    description: str
    grid: Callable[[Context], Sequence[Cell]]
    reduce: Callable[["Cells"], Any]
    render: Renderer
    paper: Mapping[Any, Any] = field(default_factory=dict)
    needs: Tuple[str, ...] = ()
    checks: Tuple[Check, ...] = ()
    claims: Tuple[Claim, ...] = ()


class Cells:
    """The reducer's view of one experiment's resolved cell results."""

    def __init__(self, ctx: Context, values: Dict[Any, Any],
                 deps: Dict[str, Any]) -> None:
        self.ctx = ctx
        self._values = values
        self._deps = deps

    def __getitem__(self, key: Any) -> Any:
        return self._values[key]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def dep(self, name: str) -> Any:
        """The Result of a dependency declared in ``Experiment.needs``."""
        return self._deps[name]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_ROMAN = {"i": "1", "ii": "2", "iii": "3", "iv": "4", "v": "5",
          "vi": "6", "vii": "7", "viii": "8", "ix": "9", "x": "10",
          "xi": "11", "xii": "12", "xiii": "13"}


def canonical_name(name: str) -> str:
    """Normalise an exhibit name: 'Table X' == 'table10' == 'tableX'."""
    flat = name.lower().replace(" ", "").replace("_", "")
    for prefix in ("table", "figure", "fig"):
        if flat.startswith(prefix):
            suffix = flat[len(prefix):]
            kind = "figure" if prefix.startswith("f") else "table"
            return kind + _ROMAN.get(suffix, suffix)
    return flat


_REGISTRY: "OrderedDict[str, Experiment]" = OrderedDict()
_ALIASES: Dict[str, str] = {}


def register_experiment(experiment: Experiment,
                        replace: bool = False) -> Experiment:
    """Register a declaration; its title becomes a lookup alias.

    Refuses to shadow an existing name unless ``replace=True``, so
    typos in extension code fail loudly instead of silently redefining
    a paper exhibit.  Returns the experiment for decorator-style use.
    """
    key = canonical_name(experiment.name)
    if not replace and key in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} is already "
                         f"registered; pass replace=True to override")
    _REGISTRY[key] = experiment
    _ALIASES[canonical_name(experiment.title)] = key
    return experiment


def _ensure_declarations_loaded() -> None:
    """Import the experiment package so every module registers."""
    import repro.experiments  # noqa: F401


def available_experiments() -> List[Experiment]:
    """Registered declarations, in registration order."""
    _ensure_declarations_loaded()
    return list(_REGISTRY.values())


def experiment_by_name(name: str) -> Experiment:
    """Look an experiment up by module name or paper title.

    ``"fig11"``, ``"Figure 11"``, ``"table10"``, and ``"Table X"`` all
    resolve to the same declaration.  Raises ``KeyError`` listing the
    known names when ``name`` is unknown.
    """
    _ensure_declarations_loaded()
    key = canonical_name(name)
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(e.name for e in _REGISTRY.values())
        raise KeyError(
            f"unknown exhibit {name!r}; known: {known}") from None


# ----------------------------------------------------------------------
# Planning and execution
# ----------------------------------------------------------------------
@dataclass
class PlanStats:
    """How much work a plan declared vs what it actually submitted."""

    experiments: int = 0
    planned_cells: int = 0
    """Grid cells plus derived baselines, before any deduplication."""

    unique_jobs: int = 0
    """Distinct content tokens among the submitted jobs, after every
    counting cell was merged into its row stream's ``CgfJob``
    (untokened jobs each count as unique -- they can never
    deduplicate)."""

    @property
    def deduplicated(self) -> int:
        """Planned jobs whose content another submitted job covers."""
        return self.planned_cells - self.unique_jobs


@dataclass
class _Entry:
    experiment: Experiment
    ctx: Context
    cells: Tuple[Cell, ...]


class _Slot(NamedTuple):
    """Where one cell's value comes from in the submitted batch."""

    cell: Cell
    index: int
    baseline_index: Optional[int]
    select: Optional[Callable[[Any], Any]]
    """Reads a counting cell's value off its merged job's result."""


class Plan:
    """A batched execution of one or more experiment declarations.

    Built by :func:`plan`; :meth:`execute` submits every planned job as
    a single session batch and reduces each experiment.  ``stats``
    holds the plan-level dedup numbers, ``batch`` the session's
    :class:`~repro.sim.session.BatchStats` for the submitted batch, and
    ``wall_time`` the end-to-end execution seconds.
    """

    def __init__(self, entries: "OrderedDict[str, _Entry]",
                 session: SimSession) -> None:
        self.session = session
        self._entries = entries
        self.stats = PlanStats(experiments=len(entries))
        self.batch: Optional[BatchStats] = None
        self.results: Dict[str, Any] = {}
        self.wall_time = 0.0
        self._jobs: List[Any] = []
        self._layout: Dict[str, List[_Slot]] = {}
        self._lay_out()

    def _lay_out(self) -> None:
        """Lay every cell out on the batch, one ``CgfJob`` per stream.

        Counting cells (``CgfJob``/``SubarrayStatsJob``) that read the
        same row stream -- within one exhibit or across several -- are
        answered by a single merged ``CgfJob`` placed where the first
        of them was declared; each such cell reads its own value off
        the merged result.
        """
        from repro.experiments.common import CgfJob, SubarrayStatsJob
        from repro.sim.runner import baseline_setup
        setup = baseline_setup()
        declared: List[Tuple[str, Cell, Any]] = []
        for name, entry in self._entries.items():
            seen_keys = set()
            for cell in entry.cells:
                if cell.key in seen_keys:
                    raise ValueError(
                        f"experiment {name!r} declared duplicate cell "
                        f"key {cell.key!r}")
                seen_keys.add(cell.key)
                job = (cell.job.resolved()
                       if hasattr(cell.job, "resolved") else cell.job)
                declared.append((name, cell, job))
        counting = (CgfJob, SubarrayStatsJob)
        streams: Dict[Any, List[Any]] = {}
        for _, _, job in declared:
            if isinstance(job, counting):
                streams.setdefault(job.stream, []).append(job)
        merged = {key: CgfJob.merge(jobs) for key, jobs in streams.items()}
        stream_index: Dict[Any, int] = {}

        self._layout = {name: [] for name in self._entries}
        for name, cell, job in declared:
            select = None
            if isinstance(job, counting):
                stream = merged[job.stream]
                index = stream_index.get(job.stream)
                if index is None:
                    index = stream_index[job.stream] = len(self._jobs)
                    self._jobs.append(stream)
                select = functools.partial(job.result_from, stream)
            else:
                index = len(self._jobs)
                self._jobs.append(job)
            baseline_index = None
            if cell.slowdown:
                baseline_index = len(self._jobs)
                self._jobs.append(dataclasses.replace(job, setup=setup))
            self._layout[name].append(
                _Slot(cell, index, baseline_index, select))
        tokens = [job_token(job) for job in self._jobs]
        self.stats.planned_cells = sum(
            self.cell_count(name) for name in self._entries)
        self.stats.unique_jobs = (
            len({t for t in tokens if t is not None})
            + sum(1 for t in tokens if t is None))

    def experiments(self) -> List[Experiment]:
        """The planned declarations, in reduce (dependency) order."""
        return [entry.experiment for entry in self._entries.values()]

    def cell_count(self, name: str) -> int:
        """Planned jobs (cells + baselines) for one experiment."""
        entry = self._entries[canonical_name(name)]
        return sum(2 if cell.slowdown else 1 for cell in entry.cells)

    def execute(self) -> Dict[str, Any]:
        """Run the single batch and reduce every planned experiment.

        Returns ``{experiment.name: Result}`` for every experiment in
        the plan (dependencies included).  Idempotent: a second call
        re-reduces from the session cache.

        Under :obj:`~repro.sim.session.FailurePolicy.KEEP_GOING` a
        permanently-failed cell does not abort the plan: the exhibits
        it belongs to (and their dependents) resolve to
        :class:`DegradedResult` records while every unaffected exhibit
        reduces normally from the surviving cells.
        """
        start = time.perf_counter()
        results = (self.session.run_many(self._jobs)
                   if self._jobs else [])
        self.batch = self.session.last_batch if self._jobs else None
        out: Dict[str, Any] = {}
        for name, entry in self._entries.items():
            values: Dict[Any, Any] = {}
            failures: List[JobFailure] = []
            missing: List[Any] = []
            for cell, index, baseline_index, select in self._layout[name]:
                protected = results[index]
                baseline = (results[baseline_index]
                            if baseline_index is not None else None)
                if is_failure(protected) or is_failure(baseline):
                    # Cells sharing a merged job share its failure.
                    failures.extend(f for f in (protected, baseline)
                                    if is_failure(f) and f not in failures)
                    missing.append(cell.key)
                elif select is not None:
                    values[cell.key] = select(protected)
                elif baseline_index is None:
                    values[cell.key] = protected
                else:
                    values[cell.key] = (
                        protected.slowdown_pct(baseline), protected)
            deps = {need: out[canonical_name(need)]
                    for need in entry.experiment.needs}
            degraded_deps = tuple(
                need for need in entry.experiment.needs
                if is_degraded(deps[need]))
            if missing or degraded_deps:
                out[name] = DegradedResult(
                    experiment=entry.experiment.name,
                    failures=tuple(failures),
                    missing_cells=tuple(missing),
                    degraded_deps=degraded_deps)
            else:
                out[name] = entry.experiment.reduce(
                    Cells(entry.ctx, values, deps))
        self.results = {entry.experiment.name: out[name]
                        for name, entry in self._entries.items()}
        self.wall_time = time.perf_counter() - start
        return self.results

    def degraded(self) -> List[str]:
        """Names of planned experiments whose Result is degraded."""
        return [name for name, result in self.results.items()
                if is_degraded(result)]


def plan(experiments: Sequence[Union[str, Experiment]],
         ctx: Optional[Context] = None,
         session: Optional[SimSession] = None) -> Plan:
    """Lay out a deduplicated batch over ``experiments`` and their
    dependencies.

    Dependencies run under the *same* context as the experiment that
    pulled them in, and an experiment reached through several paths is
    planned once.  The returned :class:`Plan` has not executed yet, so
    its ``stats`` can be inspected (and tested) without simulating.
    """
    ctx = ctx if ctx is not None else Context.make()
    session = session or get_default_session()
    entries: "OrderedDict[str, _Entry]" = OrderedDict()

    def add(experiment: Experiment, context: Context) -> None:
        key = canonical_name(experiment.name)
        if key in entries:
            if entries[key].ctx != context:
                raise ValueError(
                    f"experiment {experiment.name!r} planned twice "
                    f"with different contexts")
            return
        for need in experiment.needs:
            add(experiment_by_name(need), context)
        entries[key] = _Entry(experiment, context,
                              tuple(experiment.grid(context)))

    for item in experiments:
        add(item if isinstance(item, Experiment)
            else experiment_by_name(item), ctx)
    return Plan(entries, session)


def run_experiment(experiment: Union[str, Experiment],
                   ctx: Optional[Context] = None,
                   session: Optional[SimSession] = None) -> Any:
    """Plan and execute one experiment; returns its Result.

    The library call for one exhibit: the declaration and its
    dependencies go out as one batch.  Knobs ride on ``ctx``, e.g.
    ``run_experiment("table6", Context.make(workloads=["tc"],
    cgf=SimScale(512)))``; ``scale=`` sets the timed window divisor,
    ``cgf=`` the counting one, and keyword extras the exhibit's
    options.
    """
    if not isinstance(experiment, Experiment):
        experiment = experiment_by_name(experiment)
    return plan([experiment], ctx=ctx,
                session=session).execute()[experiment.name]


# ----------------------------------------------------------------------
# Rendering and reference checks
# ----------------------------------------------------------------------
def render_experiment(experiment: Union[str, Experiment],
                      result: Any) -> str:
    """Render a Result through the experiment's declared schema.

    A :class:`DegradedResult` renders as its failure summary instead
    of going through the declared schema (whose ``rows`` callable
    expects a complete Result).
    """
    if not isinstance(experiment, Experiment):
        experiment = experiment_by_name(experiment)
    if is_degraded(result):
        return result.summary()
    renderer = experiment.render
    if isinstance(renderer, TableSpec):
        from repro.sim.stats import format_table
        return format_table(list(renderer.columns),
                            [list(row) for row in
                             renderer.rows(result)],
                            title=renderer.title)
    return renderer(result)


def evaluate_checks(experiment: Union[str, Experiment],
                    result: Any) -> List[Deviation]:
    """Compare a Result against the declared paper references.

    A :class:`DegradedResult` cannot be measured: every declared check
    (or, when none are declared, one synthetic entry) comes back as a
    ``DEGRADED`` :class:`Deviation` with a NaN measurement, so the
    report's summary table flags the exhibit instead of crashing on
    the checks' accessors.
    """
    if not isinstance(experiment, Experiment):
        experiment = experiment_by_name(experiment)
    if is_degraded(result):
        nan = float("nan")
        if not experiment.checks:
            return [Deviation(label="cells failed", measured=nan,
                              paper=nan, within=False, degraded=True)]
        return [Deviation(label=check.label, measured=nan,
                          paper=check.paper, within=False,
                          degraded=True)
                for check in experiment.checks]
    deviations = []
    for check in experiment.checks:
        measured = float(check.measured(result))
        deviations.append(Deviation(
            label=check.label, measured=measured, paper=check.paper,
            within=near(measured, check.paper, check.rel_tol,
                        check.abs_tol)))
    return deviations


def evaluate_claims(experiment: Union[str, Experiment],
                    result: Any) -> List[ClaimVerdict]:
    """Decide every declared :class:`Claim` on a Result.

    A :class:`DegradedResult` cannot be judged: each claim comes back
    flagged ``DEGRADED``.
    """
    if not isinstance(experiment, Experiment):
        experiment = experiment_by_name(experiment)
    degraded = is_degraded(result)
    return [ClaimVerdict(label=claim.label,
                         holds=not degraded and bool(claim.holds(result)),
                         degraded=degraded)
            for claim in experiment.claims]
