"""Tests for the report generator and CLI entry point."""

import os
import re

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import framework
from repro.report import EXHIBITS, _canonical, generate_markdown
from repro.sim.session import SimSession


class TestCanonicalNames:
    def test_roman_and_arabic_agree(self):
        assert _canonical("Table X") == _canonical("table10")
        assert _canonical("Table VII") == _canonical("table7")
        assert _canonical("Figure 11") == _canonical("fig11")

    def test_distinct_exhibits_stay_distinct(self):
        names = [_canonical(title) for title, _, _ in EXHIBITS]
        assert len(set(names)) == len(names)


class TestPlanIsSilent:
    def test_execute_writes_nothing_to_stdout(self, capsys):
        # The report and `repro run` print around Plan.execute, never
        # through it: nothing on that path writes to stdout.
        plan = framework.plan(
            ["table1", "table7", "table10", "table11", "table12",
             "extras"], session=SimSession(disk_cache=False))
        plan.execute()
        assert not plan.degraded()
        assert capsys.readouterr().out == ""


class TestRunMatchesReport:
    """`repro run` prints the report's tables and flag lines."""

    def test_tables_and_flags_match_the_report(self, monkeypatch,
                                               capsys):
        assert cli_main(["run", "fig11", "table6", "--workloads", "tc",
                         "--time-scale", "8192", "--cgf-scale", "2048",
                         "--no-cache"]) == 0
        out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_WORKLOADS", "tc")
        monkeypatch.setenv("REPRO_TIME_SCALE", "8192")
        monkeypatch.setenv("REPRO_CGF_SCALE", "2048")
        report = generate_markdown(only=["fig11", "table6"],
                                   progress=False,
                                   session=SimSession(disk_cache=False))
        tables = [block.strip("\n")
                  for block in report.split("```")[1::2]]
        assert len(tables) == 2
        for table in tables:
            assert table in out
        # Check and claim lines differ only in their prefix.
        flag = r"(ok|DEV|DEGRADED): .*"
        in_report = re.findall(rf"^- ({flag})$", report, re.M)
        in_run = re.findall(rf"^  ({flag})$", out, re.M)
        assert in_report
        assert sorted(in_run) == sorted(in_report)


class TestGenerateMarkdown:
    def test_selected_exhibits_only(self):
        report = generate_markdown(only=["table7", "table10"],
                                   progress=False)
        assert "Table VII" in report
        assert "Table X" in report
        assert "Figure 3" not in report
        assert report.count("```") == 4


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out

    def test_single_exhibit(self, capsys):
        assert cli_main(["table10"]) == 0
        assert "45" in capsys.readouterr().out

    def test_unknown_exhibit(self, capsys):
        assert cli_main(["tableZZ"]) == 2

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "report" in capsys.readouterr().out

    def test_report_writes_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "report.md"
        monkeypatch.setenv("REPRO_WORKLOADS", "tc")
        monkeypatch.setenv("REPRO_TIME_SCALE", "4096")
        monkeypatch.setenv("REPRO_CGF_SCALE", "512")
        import repro.report as report_module
        monkeypatch.setattr(
            report_module, "EXHIBITS",
            [e for e in report_module.EXHIBITS
             if e[0] in ("Table I", "Table VII")])
        assert cli_main(["report", str(target)]) == 0
        assert "Table VII" in target.read_text()


class TestCliFlags:
    def test_run_subcommand_is_explicit_spelling(self, capsys):
        assert cli_main(["run", "table10"]) == 0
        assert "45" in capsys.readouterr().out

    def test_run_unknown_exhibit(self, capsys):
        assert cli_main(["run", "tableZZ"]) == 2
        assert "unknown exhibit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,noun", [
        (["run", "--setup", "mirza", "--no-cache"], "workload"),
        (["run", "--no-cache"], "exhibit"),
    ], ids=["setup", "exhibits"])
    def test_run_without_names_exits_2(self, argv, noun, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"run: name at least one {noun}\n"

    def test_flags_beat_environment(self, monkeypatch):
        from repro.__main__ import _build_parser, _environment
        import os
        monkeypatch.setenv("REPRO_TIME_SCALE", "64")
        monkeypatch.setenv("REPRO_SEED", "9")
        args = _build_parser().parse_args(
            ["run", "table1", "--time-scale", "4096"])
        with _environment(args):
            assert os.environ["REPRO_TIME_SCALE"] == "4096"
            assert os.environ["REPRO_SEED"] == "9"  # no flag: env wins
        assert os.environ["REPRO_TIME_SCALE"] == "64"  # restored

    @pytest.mark.parametrize("argv", [
        ["run", "tc", "--setup", "mirza-1000", "--time-scale", "0"],
        ["run", "tc", "--setup", "mirza-1000", "--time-scale", "-4"],
        ["report", "--only", "table6", "--cgf-scale", "0"],
    ], ids=["time-scale-0", "time-scale-negative", "cgf-scale-0"])
    def test_non_positive_scales_exit_2(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        assert cli_main(["run", "tc", "--setup", "mirza-1000",
                         "--backend", "event"]) == 2
        assert "unrecognized arguments: --backend" \
            in capsys.readouterr().err

    def test_session_honours_cache_flags(self, tmp_path):
        from repro.__main__ import _build_parser, _session_for
        args = _build_parser().parse_args(
            ["report", "--cache-dir", str(tmp_path), "--jobs", "3"])
        session = _session_for(args)
        assert session.cache_dir == str(tmp_path)
        assert session.disk_cache
        assert session.max_workers == 3
        args = _build_parser().parse_args(["report", "--no-cache"])
        assert not _session_for(args).disk_cache

    def test_report_with_no_cache_and_jobs(self, tmp_path,
                                           monkeypatch, capsys):
        target = tmp_path / "report.md"
        monkeypatch.setenv("REPRO_WORKLOADS", "tc")
        import repro.report as report_module
        monkeypatch.setattr(
            report_module, "EXHIBITS",
            [e for e in report_module.EXHIBITS
             if e[0] == "Table VII"])
        assert cli_main(["report", str(target), "--no-cache",
                         "--jobs", "1", "--time-scale", "4096",
                         "--cgf-scale", "512"]) == 0
        assert "Table VII" in target.read_text()


class TestRunSetupTraceTargets:
    """``run PATH --setup S`` replays a path-shaped target as an
    ingested trace; a ``# workload:`` claim adds the measured-vs-Table
    IV calibration rows after the summary line."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "tc.dramsim3")

    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "4096")

    def _convert(self, tmp_path, workload, capsys):
        trace = tmp_path / f"{workload}.trace"
        assert cli_main(["trace", "convert", self.FIXTURE, str(trace),
                         "--workload", workload,
                         "--instructions", "11"]) == 0
        capsys.readouterr()
        return str(trace)

    def test_claimed_workload_prints_calibration_rows(self, tmp_path,
                                                      capsys):
        trace = self._convert(tmp_path, "tc", capsys)
        assert cli_main(["run", trace, "--setup", "mirza-1000",
                         "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            f"{trace}: setup=mirza-1000 requests=1600 ")
        assert [line.split(" measured")[0] for line in lines[1:]] == [
            "calibration[tc]: MPKI", "calibration[tc]: ACT-PKI"]

    def test_unknown_claimed_workload_skips_calibration(self, tmp_path,
                                                        capsys):
        trace = self._convert(tmp_path, "nosuch", capsys)
        assert cli_main(["run", trace, "--setup", "mirza-1000",
                         "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "calibration[" not in captured.out
        assert (f"{trace}: claims unknown workload 'nosuch'; "
                "skipping calibration") in captured.err

    def test_missing_trace_target_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.trace")
        assert cli_main(["run", missing, "--setup", "mirza-1000",
                         "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("trace target: ")


class TestFailurePolicyFlags:
    def _session(self, argv):
        from repro.__main__ import _build_parser, _session_for
        return _session_for(_build_parser().parse_args(argv))

    def test_report_defaults_to_keep_going(self):
        from repro.sim.session import FailurePolicy
        session = self._session(["report"])
        assert session.failure_policy is FailurePolicy.KEEP_GOING

    def test_other_commands_default_to_fail_fast(self):
        from repro.sim.session import FailurePolicy
        for argv in (["run", "table10"],
                     ["run", "tc", "--setup", "mirza-1000"]):
            session = self._session(argv)
            assert session.failure_policy is FailurePolicy.FAIL_FAST

    def test_explicit_flags_beat_the_command_default(self):
        from repro.sim.session import FailurePolicy
        assert self._session(["report", "--fail-fast"]) \
            .failure_policy is FailurePolicy.FAIL_FAST
        assert self._session(["run", "table10", "--keep-going"]) \
            .failure_policy is FailurePolicy.KEEP_GOING

    def test_keep_going_and_fail_fast_are_exclusive(self, capsys):
        from repro.__main__ import _build_parser
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["report", "--keep-going", "--fail-fast"])

    def test_retry_and_timeout_flags_reach_the_session(self):
        session = self._session(["report", "--max-retries", "3",
                                 "--job-timeout", "2.5"])
        assert session.max_retries == 3
        assert session.job_timeout == 2.5

    def test_fault_injected_report_degrades_then_resumes(
            self, tmp_path, monkeypatch, capsys):
        # The CI smoke scenario: injected faults with no retry budget
        # degrade the report; a clean rerun resumes from the cells
        # that were cached as they finished.
        target = tmp_path / "report.md"
        monkeypatch.setenv("REPRO_WORKLOADS", "tc")
        monkeypatch.setenv("REPRO_FAULT_SEED", "0")
        import repro.report as report_module
        monkeypatch.setattr(
            report_module, "EXHIBITS",
            [e for e in report_module.EXHIBITS
             if e[0] == "Figure 11"])
        common = ["report", str(target), "--only", "fig11",
                  "--cache-dir", str(tmp_path / "cache"),
                  "--time-scale", "4096", "--cgf-scale", "512"]
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_FAULT_RATE", "0.4")
            assert cli_main(common + ["--keep-going",
                                      "--max-retries", "0"]) == 0
        degraded_text = target.read_text()
        assert "DEGRADED" in degraded_text
        assert "exhibit(s) DEGRADED (fig11)" in degraded_text
        # Clean rerun: the surviving cells come back from disk, the
        # failed ones recompute, and nothing is degraded any more.
        assert cli_main(common) == 0
        clean_text = target.read_text()
        assert "DEGRADED" not in clean_text
        assert "from cache" in clean_text
