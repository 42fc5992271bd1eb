"""Tests for the declarative experiment framework and planner."""

import dataclasses
import math

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import framework
from repro.experiments.framework import (
    Cell,
    Check,
    Claim,
    Context,
    Experiment,
)
from repro.experiments.common import CgfJob, SubarrayStatsJob
from repro.params import SimScale
from repro.report import EXHIBITS, generate_markdown
from repro.sim.runner import prac_setup
from repro.sim.session import (
    FailurePolicy,
    SimJob,
    SimSession,
    fault_roll,
)
from repro.workloads.specs import workload_by_name

FAST = Context.make(workloads=["tc"], scale=SimScale(4096),
                    cgf=SimScale(512))
COUNTING = ("table6", "table8", "fig6", "fig13")
TWO_STREAMS = Context.make(workloads=["tc", "mcf"], cgf=SimScale(512))


def _demo(name, **kwargs):
    defaults = dict(
        title=name.title(),
        description="demo experiment",
        grid=lambda ctx: (),
        reduce=lambda cells: None,
        render=lambda result: str(result),
    )
    defaults.update(kwargs)
    return Experiment(name=name, **defaults)


class TestContext:
    def test_options_sorted_and_none_dropped(self):
        ctx = Context.make(b=2, a=1, c=None)
        assert ctx.options == (("a", 1), ("b", 2))

    def test_opt_falls_back_to_default(self):
        ctx = Context.make(thresholds=(1000,))
        assert ctx.opt("thresholds") == (1000,)
        assert ctx.opt("missing", 7) == 7

    def test_scales_follow_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "4096")
        monkeypatch.setenv("REPRO_CGF_SCALE", "512")
        assert Context.make().timed_scale() == SimScale(4096)
        assert Context.make().counting_scale() == SimScale(512)
        assert Context.make(scale=SimScale(64)).timed_scale() \
            == SimScale(64)


class TestRegistry:
    def test_title_is_a_lookup_alias(self):
        assert framework.experiment_by_name("Table VII") \
            is framework.experiment_by_name("table7")
        assert framework.experiment_by_name("Figure 11") \
            is framework.experiment_by_name("fig11")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown exhibit"):
            framework.experiment_by_name("table99")

    def test_shadowing_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            framework.register_experiment(_demo("table7"))


class TestPlanner:
    def test_joint_plan_dedupes_across_experiments(self):
        # Figures 3 and 11 share their PRAC cells and unprotected
        # baselines, and Table XIII needs both figures: planning the
        # three together must submit strictly fewer unique jobs than
        # planning each on its own.
        names = ["fig3", "fig11", "table13"]
        separate = sum(
            framework.plan([name], ctx=FAST).stats.unique_jobs
            for name in names)
        joint = framework.plan(names, ctx=FAST)
        assert joint.stats.experiments == 3
        assert joint.stats.unique_jobs < separate
        assert joint.stats.deduplicated > 0

    def test_dependencies_planned_once(self):
        # table13 pulls fig3 and fig11 in through ``needs``; asking
        # for them explicitly as well must not plan them twice.
        alone = framework.plan(["table13"], ctx=FAST)
        assert [e.name for e in alone.experiments()] \
            == ["fig3", "fig11", "table13"]
        joint = framework.plan(["fig3", "fig11", "table13"], ctx=FAST)
        assert joint.stats.planned_cells == alone.stats.planned_cells

    def test_plan_is_inspectable_before_execution(self):
        plan = framework.plan(["fig11"], ctx=FAST)
        assert plan.batch is None
        assert plan.results == {}
        assert plan.stats.planned_cells > 0
        # One PRAC + three MIRZA cells for the single workload, each
        # with a derived baseline.
        assert plan.cell_count("fig11") == 8

    def test_duplicate_cell_keys_rejected(self):
        job = SimJob("tc", prac_setup(1000), SimScale(4096))
        exp = _demo("dup-cell-demo",
                    grid=lambda ctx: [Cell("k", job), Cell("k", job)])
        with pytest.raises(ValueError, match="duplicate cell key"):
            framework.plan([exp])


class TestExecution:
    def test_serial_and_parallel_reduce_identically(self):
        # Reducers are pure functions of the cell values, so fanning
        # the batch over worker processes must be bit-identical to the
        # serial run.
        ctx = Context.make(workloads=["tc"], scale=SimScale(4096),
                           thresholds=(1000,))
        serial = framework.run_experiment(
            "fig11", ctx, session=SimSession(disk_cache=False))
        parallel = framework.run_experiment(
            "fig11", ctx,
            session=SimSession(disk_cache=False, max_workers=2))
        assert serial == parallel

    def test_execute_populates_batch_and_results(self):
        ctx = Context.make(workloads=["tc"], scale=SimScale(4096),
                           thresholds=(1000,))
        plan = framework.plan(["fig11"], ctx=ctx,
                              session=SimSession(disk_cache=False))
        results = plan.execute()
        assert set(results) == {"fig11"}
        assert plan.batch is not None
        assert plan.batch.submitted == plan.stats.planned_cells
        assert plan.wall_time > 0
        assert results["fig11"].mirza_slowdown.keys() == {1000}


class TestChecks:
    def test_relative_tolerance_flags(self):
        exp = _demo("check-demo", checks=(
            Check("value", 10.0, lambda r: r, rel_tol=0.1),))
        ok, = framework.evaluate_checks(exp, 10.5)
        assert ok.within and ok.flag == "ok"
        dev, = framework.evaluate_checks(exp, 12.0)
        assert not dev.within and dev.flag == "DEV"

    def test_absolute_tolerance_covers_zero_references(self):
        exp = _demo("check-demo", checks=(
            Check("value", 0.0, lambda r: r,
                  rel_tol=0.5, abs_tol=1.0),))
        ok, = framework.evaluate_checks(exp, 0.8)
        assert ok.within
        dev, = framework.evaluate_checks(exp, 1.5)
        assert not dev.within

    def test_report_renders_deviation_flags(self):
        report = generate_markdown(only=["table12"], progress=False)
        assert "Paper vs reproduction at a glance" in report
        assert "MIRZA storage bytes/bank" in report
        assert "- ok:" in report or "- DEV:" in report


class TestClaims:
    ORDERING = "narrower windows suffer more under attack (W=8 > 12 > 16)"

    def _flag(self, rows):
        verdicts = framework.evaluate_claims("table11", rows)
        return {v.label: v.flag for v in verdicts}[self.ORDERING]

    def test_swapped_ordering_reads_dev(self):
        rows = framework.run_experiment("table11", Context.make())
        assert self._flag(rows) == "ok"
        by_window = {row.mint_window: row for row in rows}
        w8, w16 = by_window[8], by_window[16]
        swapped = [
            dataclasses.replace(
                w8, relative_throughput_pct=w16.relative_throughput_pct),
            by_window[12],
            dataclasses.replace(
                w16, relative_throughput_pct=w8.relative_throughput_pct)]
        assert self._flag(swapped) == "DEV"

    def test_claims_stay_out_of_checks(self):
        exp = _demo("claim-demo",
                    checks=(Check("value", 1.0, lambda r: r),),
                    claims=(Claim("positive", lambda r: r > 0),
                            Claim("below 2", lambda r: r < 2)))
        assert len(framework.evaluate_checks(exp, 3.0)) == 1
        assert [(v.flag, v.outcome)
                for v in framework.evaluate_claims(exp, 3.0)] == [
            ("ok", "holds"), ("DEV", "fails")]

    def test_report_renders_claims(self):
        report = generate_markdown(only=["table11"], progress=False)
        assert f"| Table XI | {self.ORDERING} | holds | holds | ok |" \
            in report
        assert f"- ok: {self.ORDERING} — holds" in report


class TestCliExperiments:
    def test_list_experiments(self, capsys):
        assert cli_main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "table6: Table VI — CGF effectiveness by mapping" in lines
        # One line per exhibit, in the report's paper order.
        assert lines == [f"{name}: {title} — {description}"
                         for title, description, name in EXHIBITS]

    def test_run_prints_checks_and_claims(self, capsys):
        assert cli_main(["run", "table12"]) == 0
        out = capsys.readouterr().out
        assert "Table XII" in out
        assert "  ok: MIRZA storage bytes/bank — measured " in out
        assert "  ok: MIRZA cannibalizes no REF time — holds" in out

    def test_run_experiment_unknown(self, capsys):
        assert cli_main(["run", "tableZZ"]) == 2
        assert "unknown exhibit" in capsys.readouterr().err

    def test_run_experiment_plans_one_batch(self, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_WORKLOADS", "tc")
        assert cli_main(["run", "fig11", "table7",
                         "--time-scale", "4096", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Figure 11" in captured.out
        assert "Table VII" in captured.out
        assert "unique" in captured.err  # plan dedup stats

    def test_report_only_flag(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert cli_main(["report", str(target),
                         "--only", "table7,table10"]) == 0
        text = target.read_text()
        assert "Table VII" in text
        assert "Table X" in text
        assert "Figure 3" not in text


def _cell_dump(name):
    """``name``'s grid under a reducer that returns the cell values."""
    experiment = framework.experiment_by_name(name)
    return _demo("cells-" + name, grid=experiment.grid,
                 reduce=lambda cells: {key: cells[key] for key in cells})


class TestCountingMerge:
    def test_counting_exhibits_submit_one_job_per_stream(self):
        plan = framework.plan(list(COUNTING), ctx=TWO_STREAMS,
                              session=SimSession(disk_cache=False))
        assert plan.stats.unique_jobs == 2
        plan.execute()
        assert plan.batch.submitted == plan.batch.computed == 2
        assert plan.stats.planned_cells == sum(
            plan.cell_count(name) for name in COUNTING)

    def test_each_cell_gets_its_own_jobs_value(self):
        dumps = [_cell_dump(name) for name in COUNTING]
        plan = framework.plan(dumps, ctx=TWO_STREAMS,
                              session=SimSession(disk_cache=False))
        results = plan.execute()
        assert plan.batch.submitted == 2
        standalone = {}
        for dump in dumps:
            for cell in dump.grid(TWO_STREAMS):
                if cell.job not in standalone:
                    standalone[cell.job] = cell.job.execute()
                assert results[dump.name][cell.key] == \
                    standalone[cell.job], (dump.name, cell.key)

    def test_serial_and_pooled_results_identical(self):
        serial = framework.plan(list(COUNTING), ctx=TWO_STREAMS,
                                session=SimSession(disk_cache=False))
        pooled = framework.plan(
            list(COUNTING), ctx=TWO_STREAMS,
            session=SimSession(disk_cache=False, max_workers=2))
        assert serial.execute() == pooled.execute()
        assert pooled.batch.workers == 2

    def test_counting_cells_merge_across_scales_only_per_stream(self):
        # table4's histogram and table9's filters read the timed-scale
        # stream, so they merge with each other but not with fig6.
        ctx = Context.make(workloads=["tc"], scale=SimScale(4096),
                           cgf=SimScale(512))
        plan = framework.plan(["fig6", "table4", "table9"], ctx=ctx)
        counting = [job for job in plan._jobs
                    if isinstance(job, CgfJob)]
        assert sorted(job.scale.time_scale for job in counting) \
            == [512, 4096]


class TestCountingFailures:
    def _keep_going(self):
        return SimSession(disk_cache=False,
                          failure_policy=FailurePolicy.KEEP_GOING,
                          max_retries=0)

    def test_failed_stream_degrades_every_exhibit_reading_it(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        plan = framework.plan(["table6", "fig6", "table12"], ctx=FAST,
                              session=self._keep_going())
        results = plan.execute()
        assert plan.batch.failed == 1
        assert sorted(plan.degraded()) == ["fig6", "table6"]
        assert not framework.is_degraded(results["table12"])
        table6 = results["table6"]
        assert len(table6.missing_cells) == plan.cell_count("table6")
        (failure,) = table6.failures
        assert failure.describe().startswith(
            "cgf:tc/x512/seed0 (4 filters + subarrays) failed")
        assert results["fig6"].failures == table6.failures

    def test_failed_stream_spares_exhibits_on_other_streams(
            self, monkeypatch):
        scale = SimScale(2048)
        tc_job = CgfJob.single(workload_by_name("tc"), "strided", 1,
                               scale=scale)
        mcf_job = SubarrayStatsJob(workload_by_name("mcf"), scale)
        readers = [
            _demo("reads-tc", grid=lambda ctx: [Cell("k", tc_job)],
                  reduce=lambda cells: cells["k"]),
            _demo("reads-mcf", grid=lambda ctx: [Cell("k", mcf_job)],
                  reduce=lambda cells: cells["k"]),
        ]
        # A fault rate between the two merged jobs' rolls fails exactly
        # the lower-rolling stream.
        rolls = {"reads-tc": fault_roll(CgfJob.merge([tc_job])),
                 "reads-mcf": fault_roll(CgfJob.merge([mcf_job]))}
        monkeypatch.setenv("REPRO_FAULT_RATE",
                           repr(sum(rolls.values()) / 2))
        plan = framework.plan(readers, ctx=FAST,
                              session=self._keep_going())
        results = plan.execute()
        failed = min(rolls, key=rolls.get)
        spared = max(rolls, key=rolls.get)
        assert plan.degraded() == [failed]
        expected = (tc_job if spared == "reads-tc" else mcf_job).execute()
        assert results[spared] == expected


@dataclasses.dataclass(frozen=True)
class _BoomJob:
    """A content-hashable cell job that always fails permanently."""

    key: int

    def execute(self):
        raise RuntimeError("poisoned cell")


class TestDegraded:
    def _keep_going(self):
        return SimSession(disk_cache=False,
                          failure_policy=FailurePolicy.KEEP_GOING,
                          max_retries=0)

    def _poisoned(self, name="degraded-demo", **kwargs):
        ok = SimJob("tc", prac_setup(1000), SimScale(4096))
        return _demo(
            name,
            grid=lambda ctx: [Cell("ok", ok), Cell("bad", _BoomJob(1))],
            reduce=lambda cells: "reduced",
            **kwargs)

    def test_failed_cell_degrades_only_its_experiment(self):
        healthy = _demo("healthy-demo",
                        grid=lambda ctx: [Cell(
                            "ok", SimJob("tc", prac_setup(1000),
                                         SimScale(4096)))],
                        reduce=lambda cells: "fine")
        plan = framework.plan([self._poisoned(), healthy], ctx=FAST,
                              session=self._keep_going())
        results = plan.execute()
        degraded = results["degraded-demo"]
        assert framework.is_degraded(degraded)
        assert degraded.missing_cells == ("bad",)
        assert degraded.failures[0].error_type == "RuntimeError"
        assert results["healthy-demo"] == "fine"
        assert plan.degraded() == ["degraded-demo"]

    def test_degraded_summary_renders_instead_of_result(self):
        exp = self._poisoned()
        plan = framework.plan([exp], ctx=FAST,
                              session=self._keep_going())
        result = plan.execute()[exp.name]
        rendered = framework.render_experiment(exp, result)
        assert rendered == result.summary()
        assert "DEGRADED" in rendered
        assert "poisoned cell" in rendered

    def test_degradation_propagates_through_needs(self):
        dep = self._poisoned("degraded-dep")
        framework.register_experiment(dep)
        try:
            dependent = _demo(
                "dependent-demo",
                grid=lambda ctx: (),
                needs=("degraded-dep",),
                reduce=lambda cells: cells.need("degraded-dep"))
            plan = framework.plan([dependent], ctx=FAST,
                                  session=self._keep_going())
            results = plan.execute()
            assert framework.is_degraded(results["dependent-demo"])
            assert results["dependent-demo"].degraded_deps \
                == ("degraded-dep",)
            assert "dependency" in results["dependent-demo"].summary()
        finally:
            framework._REGISTRY.pop(
                framework.canonical_name("degraded-dep"), None)

    def test_degraded_checks_flag_without_numbers(self):
        exp = self._poisoned(checks=(
            framework.Check("value", 10.0, lambda r: r),))
        result = framework.plan(
            [exp], ctx=FAST,
            session=self._keep_going()).execute()[exp.name]
        dev, = framework.evaluate_checks(exp, result)
        assert dev.flag == "DEGRADED"
        assert math.isnan(dev.measured)
        assert not dev.within

    def test_degraded_claims_render_degraded(self, monkeypatch):
        import repro.report as report_module
        exp = framework.register_experiment(self._poisoned(
            "claims-demo",
            claims=(Claim("the value is positive", lambda r: r > 0),)))
        monkeypatch.setattr(report_module, "EXHIBITS",
                            [(exp.title, exp.description, exp.name)])
        try:
            report = generate_markdown(progress=False,
                                       session=self._keep_going())
        finally:
            framework._REGISTRY.pop(framework.canonical_name(exp.name))
        assert ("| Claims-Demo | the value is positive | unevaluated "
                "| holds | DEGRADED |") in report
        assert "- DEGRADED: the value is positive — unevaluated" in report

    def test_degraded_without_checks_yields_synthetic_row(self):
        exp = self._poisoned()
        result = framework.plan(
            [exp], ctx=FAST,
            session=self._keep_going()).execute()[exp.name]
        dev, = framework.evaluate_checks(exp, result)
        assert dev.flag == "DEGRADED"
        assert dev.label == "cells failed"

    def test_fail_fast_session_aborts_the_plan(self):
        from repro.sim.session import JobFailed
        session = SimSession(disk_cache=False, max_retries=0)
        plan = framework.plan([self._poisoned()], ctx=FAST,
                              session=session)
        with pytest.raises(JobFailed, match="poisoned cell"):
            plan.execute()
