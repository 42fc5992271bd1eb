"""Tests for the seeded attack-parameter fuzzer."""

import random

import pytest

from repro.mitigations.base import BankTracker
from repro.params import SimScale, SystemConfig
from repro.security.fuzz import (
    FAMILIES,
    MITIGATIONS,
    FuzzJob,
    FuzzOutcome,
    FuzzSpec,
    default_acts,
    escape_curve,
    fuzz_jobs,
    fuzz_patterns,
    fuzz_tracker,
    run_fuzz,
    sample_pattern,
)
from repro.sim.session import SimSession, job_label, job_token
from repro.workloads.patterns import DoubleSided, Feint

SEQ = dict(mapping="sequential")


def small_spec(**overrides):
    base = dict(mitigations=("trr",), budget=4, acts=4000, seed=0)
    base.update(overrides)
    return FuzzSpec(**base)


class TestTrackerRegistry:
    def test_resolves_every_base_name(self):
        from repro.dram.mapping import SequentialR2SA
        config = SystemConfig()
        mapping = SequentialR2SA(config.geometry)
        for name in MITIGATIONS:
            tracker = fuzz_tracker(name, seed=1, config=config,
                                   mapping=mapping)
            assert isinstance(tracker, BankTracker)

    def test_parameterised_names(self):
        from repro.dram.mapping import SequentialR2SA
        config = SystemConfig()
        mapping = SequentialR2SA(config.geometry)
        trr = fuzz_tracker("trr-8", 0, config, mapping)
        assert trr.entries == 8
        prac = fuzz_tracker("prac-500", 0, config, mapping)
        assert prac.trhd == 500

    def test_unknown_name_raises(self):
        from repro.dram.mapping import SequentialR2SA
        config = SystemConfig()
        with pytest.raises(KeyError):
            fuzz_tracker("nosuch", 0, config,
                         SequentialR2SA(config.geometry))


class TestSampling:
    def test_every_family_is_sampled(self):
        spec = small_spec(budget=len(FAMILIES))
        families = {type(p).__name__ for p in fuzz_patterns(spec)}
        assert len(families) == len(FAMILIES)

    def test_sampling_is_seed_deterministic(self):
        assert fuzz_patterns(small_spec()) == fuzz_patterns(small_spec())
        assert fuzz_patterns(small_spec()) != \
            fuzz_patterns(small_spec(seed=1))

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            sample_pattern(random.Random(0), "nosuch", 100,
                           SystemConfig())

    def test_jobs_are_content_addressed(self):
        cells = fuzz_jobs(small_spec())
        tokens = [job_token(job) for _, job in cells]
        assert all(tokens)
        assert len(set(tokens)) == len(tokens)
        again = [job_token(job) for _, job in fuzz_jobs(small_spec())]
        assert tokens == again


class TestFuzzJob:
    def test_labels_name_mitigation_and_pattern(self):
        pattern = Feint(tracker_entries=8, acts=2000, decoys=1)
        job = FuzzJob(pattern=pattern, mitigation="trr")
        assert job_label(job) == f"fuzz:trr/{pattern.label()}"

    def test_labels_are_distinct_across_the_fuzz_grid(self):
        from repro.experiments import framework
        ctx = framework.Context.make(scale=SimScale(8192), seed=1)
        jobs = [cell.job
                for cell in framework.experiment_by_name("fuzz").grid(ctx)]
        assert len({job_label(job) for job in jobs}) == \
            len({job_token(job) for job in jobs}) == len(jobs)

    def test_executes_and_reduces(self):
        job = FuzzJob(pattern=Feint(tracker_entries=8, acts=2000,
                                    decoys=1),
                      mitigation="trr-8")
        outcome = job.execute()
        assert isinstance(outcome, FuzzOutcome)
        assert outcome.acts == 2000
        assert outcome.max_unmitigated > 0
        assert outcome.mitigation == "trr-8"

    def test_edge_victim_cell_survives(self):
        # The double-sided edge-case bugfix, end to end: a fuzzer
        # victim at row 0 degrades to single-sided instead of crashing.
        job = FuzzJob(pattern=DoubleSided(victim_row=0, acts=1000),
                      mitigation="none")
        outcome = job.execute()
        # All 1000 ACTs hammer row 1 single-sided; the early refresh
        # sweep resets a handful before it moves past the edge rows.
        assert 900 < outcome.max_unmitigated <= 1000

    def test_outcome_roundtrips_through_disk_cache(self, tmp_path):
        job = FuzzJob(pattern=Feint(tracker_entries=8, acts=1500,
                                    decoys=2),
                      mitigation="trr-8")
        first = SimSession(cache_dir=tmp_path).run_many([job])[0]
        second_session = SimSession(cache_dir=tmp_path)
        second = second_session.run_many([job])[0]
        assert second == first
        assert second_session.last_batch.cache_hits == 1


class TestSweep:
    def test_same_spec_renders_bit_identically(self):
        spec = small_spec()
        one = run_fuzz(spec, session=SimSession(disk_cache=False))
        two = run_fuzz(spec, session=SimSession(disk_cache=False))
        assert one.render() == two.render()

    def test_rerun_is_all_cache_hits(self, tmp_path):
        spec = small_spec()
        session = SimSession(cache_dir=tmp_path)
        run_fuzz(spec, session=session)
        report = run_fuzz(spec, session=session)
        batch = session.last_batch
        assert batch.cache_hits == batch.submitted
        assert report.entries

    def test_fuzzed_pattern_dominates_paper_set_against_trr(self):
        # The acceptance bar: the open-ended search must find a
        # pattern that beats every fixed paper pattern's max per-row
        # escape count against the insecure TRR reference.
        spec = FuzzSpec(mitigations=("trr",), budget=8, acts=12_000,
                        seed=0)
        report = run_fuzz(spec, session=SimSession(disk_cache=False))
        best_fuzz = report.best("trr", "fuzz").outcome
        best_paper = report.best("trr", "paper").outcome
        assert best_fuzz.max_unmitigated > best_paper.max_unmitigated
        assert report.dominated("trr")

    def test_report_ranks_worst_first(self):
        report = run_fuzz(small_spec(),
                          session=SimSession(disk_cache=False))
        escapes = [e.outcome.max_unmitigated
                   for e in report.ranked("trr")]
        assert escapes == sorted(escapes, reverse=True)


class TestEscapeCurve:
    def test_curve_orders_match_inputs(self):
        patterns = [Feint(tracker_entries=8, acts=4000, decoys=d)
                    for d in (1, 4, 16)]
        curve = escape_curve(patterns, "trr-8",
                             session=SimSession(disk_cache=False))
        assert [p for p, _ in curve] == patterns
        assert all(isinstance(v, int) and v > 0 for _, v in curve)
        # Fewer decoys -> tighter rotation -> more escapes per row.
        assert curve[0][1] > curve[2][1]


class TestDefaultActs:
    def test_scales_with_time_and_floors(self):
        assert default_acts(1) > 600_000
        assert default_acts(2048) == 12_000
