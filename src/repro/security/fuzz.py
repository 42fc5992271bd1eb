"""Seeded attack-parameter fuzzer: patterns x mitigations -> escapes.

The fuzzer samples attack-pattern shapes from the declarative DSL in
:mod:`repro.workloads.patterns` -- boundary-biased, the way a fuzzer
should probe a tracker's capacity edges -- and drives every sampled
pattern, plus the paper's fixed attack set, through
:class:`~repro.security.attacks.SingleBankHarness` against each
requested mitigation.  Each (pattern, mitigation) cell is a frozen
:class:`FuzzJob`: content-addressed job material for
:meth:`repro.sim.session.SimSession.run_many`, so sweeps deduplicate,
cache, and resume like every other batch in the repository.

The measurement per cell is ``max_unmitigated`` -- the ground-truth
oracle's worst per-row unmitigated ACT count -- which is exactly the
quantity the paper's security arguments bound.  A sweep's
:class:`FuzzReport` compares the best fuzzed pattern against the best
paper-set pattern per mitigation; a mitigation whose paper-set maximum
is beaten by a fuzzed cell is *dominated* (the open-ended search found
a stronger attack than the fixed vocabulary).

Determinism: the sweep is a pure function of its :class:`FuzzSpec`
(all sampling comes from ``random.Random(spec.seed)``), so the same
spec renders a bit-identical report and re-running it is all cache
hits.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.dram.mapping import (
    RowToSubarrayMapping,
    SequentialR2SA,
    StridedR2SA,
)
from repro.params import SystemConfig, max_acts_per_bank_per_trefw
from repro.security.attacks import SingleBankHarness
from repro.sim.session import SimSession, is_failure, register_job_type
from repro.workloads.patterns import (
    AttackPattern,
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    Feint,
    HalfDouble,
    NSided,
    RefreshSyncBurst,
    paper_attack_set,
)

FAMILIES = ("double-sided", "n-sided", "half-double", "feint",
            "evasion", "refresh-sync")
"""Pattern families the sampler draws from (round-robin coverage)."""

MITIGATIONS = ("none", "trr", "para", "mithril", "prac", "mint",
               "mirza")
"""Base names :func:`fuzz_tracker` resolves (optionally ``-<param>``)."""

_DEFAULT_MITIGATIONS = ("trr", "prac-1000", "mirza-1000")


# ----------------------------------------------------------------------
# Tracker resolution
# ----------------------------------------------------------------------
def fuzz_tracker(name: str, seed: int, config: SystemConfig,
                 mapping: RowToSubarrayMapping):
    """A fresh per-bank tracker for one fuzz cell.

    This is a fuzz-local registry, deliberately decoupled from the
    full-system :mod:`repro.sim.registry` setups: the harness needs a
    bare :class:`~repro.mitigations.base.BankTracker`, and the sweep
    wants insecure references (``trr``, ``para``) next to the paper's
    setups.  ``name`` is ``family`` or ``family-<param>`` where the
    parameter is the family's headline knob (TRR/Mithril entries,
    PRAC/MIRZA threshold, MINT window).
    """
    base, _, arg = name.partition("-")
    param = int(arg) if arg else None
    if base in ("none", "baseline"):
        from repro.mitigations import NoMitigation
        return NoMitigation()
    if base == "trr":
        from repro.mitigations import TrrTracker
        return TrrTracker(entries=param if param else 28)
    if base == "para":
        from repro.mitigations import ParaTracker
        return ParaTracker(1.0 / (param if param else 16),
                           rng=random.Random(seed))
    if base == "mithril":
        from repro.mitigations import MithrilTracker
        return MithrilTracker(entries=param if param else 2048)
    if base == "prac":
        from repro.mitigations import PracTracker
        return PracTracker(trhd=param if param else 1000,
                           abo=config.abo)
    if base == "mint":
        from repro.mitigations import MintTracker
        return MintTracker(window=param if param else 12,
                           refs_per_mitigation=1,
                           rng=random.Random(seed))
    if base == "mirza":
        from repro.core.config import MirzaConfig
        from repro.core.mirza import MirzaTracker
        cfg = MirzaConfig.paper_config(param if param else 1000)
        return MirzaTracker(cfg, config.geometry, mapping,
                            rng=random.Random(seed))
    raise KeyError(f"unknown fuzz mitigation {name!r}; base names: "
                   f"{', '.join(MITIGATIONS)}")


def _mapping_for(kind: str, config: SystemConfig
                 ) -> RowToSubarrayMapping:
    if kind == "sequential":
        return SequentialR2SA(config.geometry)
    if kind == "strided":
        return StridedR2SA(config.geometry)
    raise KeyError(f"unknown mapping {kind!r} (sequential or strided)")


# ----------------------------------------------------------------------
# The cacheable cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzOutcome:
    """One executed fuzz cell, reduced to its security observables."""

    label: str
    family: str
    mitigation: str
    acts: int
    max_unmitigated: int
    alerts: int
    mitigations: int


@dataclass(frozen=True)
class FuzzJob:
    """One (pattern, mitigation) harness run; content-addressed.

    The pattern spec *is* the job material: every shape and timing
    knob, including each pattern's own ``seed``, participates in the
    cache token through :func:`repro.sim.session.describe`.
    """

    pattern: Any  # an AttackPattern (typed Any: no import cycles)
    mitigation: str
    seed: int = 0
    acts_per_ref: int = 0
    """Harness REF cadence in ACTs; 0 derives it from the timings."""
    mapping: str = "sequential"
    blast_radius: int = 2
    config: SystemConfig = SystemConfig()

    def label(self) -> str:
        """Span/progress name, e.g. ``fuzz:trr/feint(...)``."""
        return f"fuzz:{self.mitigation}/{self.pattern.label()}"

    def execute(self) -> FuzzOutcome:
        """Drive the compiled stream through the harness (worker path)."""
        mapping = _mapping_for(self.mapping, self.config)
        tracker = fuzz_tracker(self.mitigation, self.seed, self.config,
                               mapping)
        harness = SingleBankHarness(
            tracker, self.config, mapping=mapping,
            blast_radius=self.blast_radius,
            acts_per_ref=self.acts_per_ref or None)
        ctx = CompileContext.make(
            mapping=mapping, config=self.config,
            acts_per_trefi=harness.acts_per_ref)
        harness.run(self.pattern.rows(ctx))
        harness.flush_alert()
        return FuzzOutcome(
            label=self.pattern.label(),
            family=type(self.pattern).__name__,
            mitigation=self.mitigation,
            acts=harness.acts,
            max_unmitigated=harness.max_unmitigated,
            alerts=harness.alerts,
            mitigations=harness.mitigations)


register_job_type(FuzzJob,
                  dataclasses.asdict,
                  lambda payload: FuzzOutcome(**payload))


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def sample_pattern(rng: random.Random, family: str, acts: int,
                   config: SystemConfig,
                   tracker_entries: int = 28) -> AttackPattern:
    """One boundary-biased sample of ``family``'s parameter space.

    Victims are uniform over the whole bank (subarray edges included
    -- the degraded single-sided case must be reachable), and
    capacity-shaped knobs are biased toward the tracker's edges
    (``decoys`` just past the table size, bursts around it): the
    boundaries are where evasion lives.
    """
    rows = config.geometry.rows_per_bank
    victim = rng.randrange(rows)
    if family == "double-sided":
        return DoubleSided(victim_row=victim, acts=acts)
    if family == "n-sided":
        return NSided(victim_row=victim, sides=rng.randint(3, 6),
                      acts=acts)
    if family == "half-double":
        return HalfDouble(victim_row=victim, acts=acts,
                          far_acts_per_near=rng.choice((2, 4, 8, 16)))
    if family == "feint":
        return Feint(tracker_entries=tracker_entries, acts=acts,
                     decoys=rng.choice((1, 1, 2, 3, 5, 8, 13)),
                     base_row=rng.randrange(rows // 2))
    if family == "evasion":
        return DecoyEvasion(
            table_entries=tracker_entries,
            target_row=victim, acts=acts,
            seed=rng.getrandbits(32),
            burst=rng.choice((0, tracker_entries // 2,
                              tracker_entries, 2 * tracker_entries)))
    if family == "refresh-sync":
        pair = (max(0, victim - 1), min(rows - 1, victim + 1))
        return RefreshSyncBurst(
            aggressors=pair,
            reads_per_trefi=rng.choice((2, 4, 8, 16, 32)),
            acts=acts, seed=rng.getrandbits(32))
    raise KeyError(f"unknown pattern family {family!r}")


@dataclass(frozen=True)
class FuzzSpec:
    """A whole sweep, as one describable value (seed included)."""

    mitigations: Tuple[str, ...] = _DEFAULT_MITIGATIONS
    budget: int = 16
    """Fuzzed patterns per sweep (each runs against every mitigation)."""
    acts: int = 30_000
    """Attacker ACTs per cell."""
    seed: int = 0
    acts_per_ref: int = 0
    mapping: str = "sequential"
    tracker_entries: int = 28
    """Capacity hint shaping feint/evasion samples (the TRR default)."""
    config: SystemConfig = SystemConfig()


def fuzz_patterns(spec: FuzzSpec) -> List[AttackPattern]:
    """The seeded sample set: families round-robin over the budget so
    every family appears, parameters drawn from ``Random(spec.seed)``."""
    rng = random.Random(spec.seed)
    return [
        sample_pattern(rng, FAMILIES[i % len(FAMILIES)], spec.acts,
                       spec.config, spec.tracker_entries)
        for i in range(spec.budget)
    ]


def fuzz_jobs(spec: FuzzSpec
              ) -> List[Tuple[str, FuzzJob]]:
    """Every cell of the sweep as ``(origin, job)``; origin is
    ``"fuzz"`` or ``"paper"``."""
    tagged = [("fuzz", p) for p in fuzz_patterns(spec)]
    tagged += [("paper", p) for p in paper_attack_set(
        spec.acts, spec.tracker_entries).values()]
    return [
        (origin, FuzzJob(pattern=pattern, mitigation=mitigation,
                         seed=spec.seed,
                         acts_per_ref=spec.acts_per_ref,
                         mapping=spec.mapping, config=spec.config))
        for mitigation in spec.mitigations
        for origin, pattern in tagged
    ]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzEntry:
    """One sweep row: a cell's outcome plus its origin tag."""

    origin: str
    outcome: FuzzOutcome


@dataclass
class FuzzReport:
    """Reduced sweep: per-mitigation escape ranking, fuzz vs paper."""

    spec: FuzzSpec
    entries: List[FuzzEntry]
    failed: int = 0

    def ranked(self, mitigation: str) -> List[FuzzEntry]:
        """The mitigation's cells, worst escape first (stable order)."""
        rows = [e for e in self.entries
                if e.outcome.mitigation == mitigation]
        return sorted(rows, key=lambda e: (-e.outcome.max_unmitigated,
                                           e.origin, e.outcome.label))

    def best(self, mitigation: str, origin: str
             ) -> Optional[FuzzEntry]:
        """The origin's worst-escape cell against one mitigation."""
        for entry in self.ranked(mitigation):
            if entry.origin == origin:
                return entry
        return None

    def dominated(self, mitigation: str) -> bool:
        """Did a fuzzed pattern strictly beat every paper pattern?"""
        fuzzed = self.best(mitigation, "fuzz")
        paper = self.best(mitigation, "paper")
        if fuzzed is None or paper is None:
            return False
        return (fuzzed.outcome.max_unmitigated
                > paper.outcome.max_unmitigated)

    def render(self, top: int = 5) -> str:
        """Deterministic text report (the CLI's stdout contract: the
        same spec must render bit-identically run over run)."""
        spec = self.spec
        lines = [
            f"fuzz sweep: {spec.budget} fuzzed + 4 paper patterns x "
            f"{len(spec.mitigations)} mitigations, acts={spec.acts}, "
            f"seed={spec.seed}"]
        if self.failed:
            lines.append(f"  ({self.failed} cells failed)")
        for mitigation in spec.mitigations:
            lines.append("")
            lines.append(f"[{mitigation}] top escapes "
                         f"(max unmitigated ACTs per row):")
            for entry in self.ranked(mitigation)[:top]:
                o = entry.outcome
                lines.append(
                    f"  {o.max_unmitigated:>7}  {entry.origin:<5} "
                    f"alerts={o.alerts:<4} mitig={o.mitigations:<5} "
                    f"{o.label}")
            fuzzed = self.best(mitigation, "fuzz")
            paper = self.best(mitigation, "paper")
            if fuzzed and paper:
                verdict = ("paper set dominated"
                           if self.dominated(mitigation)
                           else "paper set not beaten")
                lines.append(
                    f"  best fuzzed {fuzzed.outcome.max_unmitigated} "
                    f"vs best paper {paper.outcome.max_unmitigated} "
                    f"-> {verdict}")
        return "\n".join(lines)


def run_fuzz(spec: FuzzSpec,
             session: Optional[SimSession] = None) -> FuzzReport:
    """Execute the sweep as one session batch and reduce it."""
    session = session if session is not None else SimSession()
    cells = fuzz_jobs(spec)
    results = session.run_many([job for _, job in cells])
    entries: List[FuzzEntry] = []
    failed = 0
    for (origin, _), result in zip(cells, results):
        if result is None or is_failure(result):
            failed += 1
            continue
        entries.append(FuzzEntry(origin=origin, outcome=result))
    return FuzzReport(spec=spec, entries=entries, failed=failed)


def escape_curve(patterns: List[AttackPattern], mitigation: str,
                 spec: FuzzSpec = FuzzSpec(),
                 session: Optional[SimSession] = None
                 ) -> List[Tuple[AttackPattern, int]]:
    """Escape count for each pattern against one mitigation.

    The escape-vs-parameter curve helper: build the patterns by
    varying one knob, get back ``(pattern, max_unmitigated)`` pairs in
    the same order (cacheable cells, like any sweep).
    """
    session = session if session is not None else SimSession()
    jobs = [FuzzJob(pattern=p, mitigation=mitigation, seed=spec.seed,
                    acts_per_ref=spec.acts_per_ref,
                    mapping=spec.mapping, config=spec.config)
            for p in patterns]
    results = session.run_many(jobs)
    return [(p, 0 if (r is None or is_failure(r))
             else r.max_unmitigated)
            for p, r in zip(patterns, results)]


def default_acts(time_scale: int = 1,
                 config: SystemConfig = SystemConfig()) -> int:
    """Per-cell ACT budget scaled like the timed exhibits: a full
    refresh window's worth at scale 1, floored so capacity-edge
    effects (the slow linear climb past a starved tracker) stay
    visible at smoke scales."""
    budget = max_acts_per_bank_per_trefw(config.timings)
    return max(12_000, budget // max(1, time_scale))


__all__ = [
    "FAMILIES",
    "MITIGATIONS",
    "FuzzEntry",
    "FuzzJob",
    "FuzzOutcome",
    "FuzzReport",
    "FuzzSpec",
    "default_acts",
    "escape_curve",
    "fuzz_jobs",
    "fuzz_patterns",
    "fuzz_tracker",
    "run_fuzz",
    "sample_pattern",
]
