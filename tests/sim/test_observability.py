"""Integration tests: observability through simulate/session/CLI.

Covers the guarantees docs/observability.md promises: snapshots attach
to results, serial and process-pool runs produce identical metrics,
worker profiles merge into the parent, and the CLI emits valid
Perfetto traces.
"""

import json
import os

import pytest

from repro import obs
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import merge_snapshots
from repro.params import SimScale
from repro.sim.registry import setup_by_name
from repro.sim.runner import mirza_setup, simulate
from repro.sim.session import SimJob, SimSession

SCALE = SimScale(2048)  # ~16 us windows: smoke-test speed


def _jobs():
    setup = setup_by_name("mirza", SCALE)
    return [SimJob(w, setup, SCALE, seed=0) for w in ("tc", "lbm")]


class TestSimulateAttachesObservability:
    def test_off_by_default(self):
        result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert result.metrics is None
        assert result.trace_events is None

    def test_metrics_and_trace_attach(self):
        with obs.collecting("metrics", "trace"):
            result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert result.metrics["mc.requests"]["value"] > 0
        assert result.metrics["mc.requests"]["value"] == \
            result.total_requests
        assert any(e[2] == "ACT" for e in result.trace_events)

    def test_env_knob_attaches_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert result.metrics is not None
        assert result.trace_events is None

    def test_bank_acts_sum_to_total_activations(self):
        with obs.collecting("metrics"):
            result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        acts = sum(v["value"] for k, v in result.metrics.items()
                   if k.startswith("dram.bank.acts{"))
        assert acts == result.total_activations

    def test_calibration_is_not_counted(self):
        # Two back-to-back collected runs must report identical
        # snapshots even though only the first calibrates (the probe
        # binds to no sink); a leak would skew whichever run pays it.
        with obs.collecting("metrics") as a:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        with obs.collecting("metrics") as b:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert a.metrics.snapshot() == b.metrics.snapshot()

    def test_trace_is_perfetto_valid(self):
        with obs.collecting("trace") as col:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        events = col.trace.as_list()
        assert events
        from repro.obs.export import chrome_trace_events
        assert validate_chrome_trace(chrome_trace_events(events)) is None


class TestSessionAggregation:
    def _run(self, workers):
        with obs.collecting("metrics", "trace") as col:
            session = SimSession(disk_cache=False, max_workers=workers)
            results = session.run_many(_jobs())
        return col, results

    def test_serial_and_pool_snapshots_identical(self):
        col1, res1 = self._run(1)
        col2, res2 = self._run(2)
        snap1, snap2 = col1.metrics.snapshot(), col2.metrics.snapshot()
        assert snap1 == snap2
        assert [r.metrics for r in res1] == [r.metrics for r in res2]
        assert sorted(map(tuple, col1.trace.as_list())) == \
            sorted(map(tuple, col2.trace.as_list()))

    def test_session_snapshot_equals_merged_results(self):
        col, results = self._run(2)
        merged = merge_snapshots([r.metrics for r in results])
        assert merged == col.metrics.snapshot()

    def test_pool_profiles_merge_into_parent(self):
        from repro.sim.profile import KernelProfile, profiling
        with profiling() as prof:
            session = SimSession(disk_cache=False, max_workers=2)
            session.run_many(_jobs())
        assert isinstance(prof, KernelProfile)
        assert prof.requests > 0  # counted in the workers
        assert prof.runs >= 2

    def test_cached_result_without_metrics_is_refreshed(self, tmp_path):
        session = SimSession(cache_dir=str(tmp_path), disk_cache=True,
                             max_workers=1)
        job = _jobs()[0]
        plain = session.run_many([job])[0]
        assert plain.metrics is None
        with obs.collecting("metrics"):
            fresh = session.run_many([job])[0]
        assert fresh.metrics is not None
        # ... and a satisfying cached result is served as-is.
        with obs.collecting("metrics"):
            cached = session.run_many([job])[0]
        assert cached.metrics == fresh.metrics


class TestProfileMergePrimitives:
    def test_merge_is_additive(self):
        from repro.obs.profile import KernelProfile
        a, b = KernelProfile(), KernelProfile()
        a.requests = 2
        b.requests = 3
        a.merge(b)
        assert a.requests == 5
        a.merge(b.to_dict())
        assert a.requests == 8


class TestCliObservability:
    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "2048")

    def test_run_setup_metrics_prints_metrics_table(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "tc", "--setup", "mirza-1000",
                         "--metrics", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "dram.bank.acts" in out
        assert "mc.requests" in out
        assert "mc.latency_ps" in out

    def test_run_setup_trace_out_writes_valid_trace(self, tmp_path,
                                                    capsys):
        from repro.__main__ import main as cli_main
        target = tmp_path / "trace.json"
        assert cli_main(["run", "tc", "--setup", "mirza",
                         "--trace-out", str(target),
                         "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        lanes = {(e["pid"], e["tid"])
                 for e in payload["traceEvents"] if e["ph"] != "M"}
        assert len(lanes) > 2  # per-bank lanes, not one flat track

    def test_run_setup_jsonl_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        from repro.obs.export import read_jsonl
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        assert cli_main(["run", "tc", "--setup", "mirza-1000",
                         "--trace-out", str(chrome),
                         "--jsonl-out", str(jsonl),
                         "--no-cache"]) == 0
        events = read_jsonl(str(jsonl))
        assert events
        from repro.obs.export import chrome_trace_events
        assert validate_chrome_trace(chrome_trace_events(events)) is None

    def test_run_setup_metrics_trace_and_jsonl_together(self, tmp_path,
                                                        capsys):
        """The three observability outputs of one ``run --setup``."""
        from repro.__main__ import main as cli_main
        from repro.obs.export import read_jsonl
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        assert cli_main(["run", "tc", "--setup", "mirza-1000",
                         "--metrics", "--trace-out", str(chrome),
                         "--jsonl-out", str(jsonl), "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "dram.bank.acts" in captured.out
        assert "session.cache.hit_rate" in captured.out
        payload = json.loads(chrome.read_text())
        assert validate_chrome_trace(payload) is None
        # The JSON-lines file holds the kernel events the Chrome trace
        # was written from; the trace adds the session spans.
        events = read_jsonl(str(jsonl))
        assert events
        assert f"wrote {len(events)} events and " in captured.err
        assert len([e for e in payload["traceEvents"]
                    if e["ph"] != "M"]) > len(events)

    def test_run_setup_without_flags_prints_only_summaries(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "tc", "mcf", "--setup", "mirza-1000",
                         "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["tc", "mcf"]
        assert all(" setup=mirza-1000 requests=" in line
                   for line in lines)

    @pytest.mark.parametrize("argv", [
        ["run", "table7", "--trace-out", "trace.json"],
        ["run", "tc", "--setup", "mirza-1000"],
    ], ids=["no-setup", "no-trace-out"])
    def test_jsonl_out_needs_setup_and_trace_out(self, argv, tmp_path,
                                                 capsys):
        from repro.__main__ import main as cli_main
        jsonl = tmp_path / "events.jsonl"
        assert cli_main(argv + ["--jsonl-out", str(jsonl)]) == 2
        assert "--jsonl-out needs --setup and --trace-out" \
            in capsys.readouterr().err
        assert not jsonl.exists()

    @pytest.mark.parametrize("argv,message", [
        (["run", "table7", "--metrics"], "--metrics needs --setup"),
        (["report", "--metrics"], "unrecognized arguments: --metrics"),
        (["fuzz", "--metrics"], "unrecognized arguments: --metrics"),
    ], ids=["run-no-setup", "report", "fuzz"])
    def test_metrics_needs_run_setup(self, argv, message, tmp_path,
                                     monkeypatch, capsys):
        """``--metrics`` exists only where a metrics table is printed."""
        from repro.__main__ import main as cli_main
        monkeypatch.chdir(tmp_path)  # where a report would land
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_unknown_setup_fails_cleanly(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "tc", "--setup", "nope",
                         "--metrics"]) == 2
        assert "unknown setup" in capsys.readouterr().err


class TestCliSessionSpans:
    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "2048")

    def test_trace_out_carries_session_spans(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        from repro.obs.export import SPAN_PIDS
        target = tmp_path / "trace.json"
        assert cli_main(["run", "tc", "lbm", "--setup", "mirza",
                         "--trace-out", str(target), "--jobs", "2",
                         "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        cells = [e for e in payload["traceEvents"]
                 if e.get("pid") == SPAN_PIDS["session"]
                 and e.get("ph") == "X"
                 and e["name"].startswith("cell:")]
        # Every executed cell appears exactly once, with a disposition.
        assert sorted(e["name"] for e in cells) == [
            "cell:lbm/mirza-1000", "cell:tc/mirza-1000"]
        assert all(e["args"]["disposition"] == "computed"
                   for e in cells)
        kernels = [e for e in payload["traceEvents"]
                   if e.get("pid") == SPAN_PIDS["worker"]
                   and e.get("ph") == "X"]
        assert len(kernels) == 2

    def test_metrics_table_includes_session_gauges(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "tc", "--setup", "mirza-1000",
                         "--metrics", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "session.cache.hit_rate" in out
        assert "session.pool.utilization" in out
        assert "session.queue_depth" in out

    def test_metrics_without_any_recorded_exits_3(self, monkeypatch,
                                                  capsys):
        from repro.__main__ import main as cli_main
        # Every job fails permanently -> no result carries metrics.
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        status = cli_main(["run", "tc", "--setup", "mirza-1000",
                           "--metrics", "--no-cache",
                           "--max-retries", "0", "--keep-going"])
        assert status == 3
        assert "no metrics were recorded" in capsys.readouterr().err

    def test_progress_flag_renders_line(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "tc", "--setup", "mirza",
                         "--progress", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "[1/1] 100%" in err
        assert "hits 0%" in err

    def test_report_trace_out_writes_valid_span_trace(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        import repro.report as report_mod
        from repro.__main__ import main as cli_main
        from repro.obs.export import SPAN_PIDS
        monkeypatch.setattr(
            report_mod, "EXHIBITS",
            [e for e in report_mod.EXHIBITS if e[2] == "table2"])
        out_md = tmp_path / "report.md"
        target = tmp_path / "trace.json"
        assert cli_main(["report", str(out_md), "--only", "table2",
                         "--trace-out", str(target),
                         "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        assert any(e.get("pid") == SPAN_PIDS["session"]
                   and e.get("name") == "run_many"
                   for e in payload["traceEvents"])

    def test_warm_render_traces_the_cold_renders_kernel_events(
            self, tmp_path, monkeypatch, capsys):
        """A cache hit folds its kernel events into the trace once per
        cell, as a computed cell does, so a warm ``--cache-dir`` render
        writes the events the cold render wrote."""
        import collections

        from repro.__main__ import main as cli_main
        from repro.obs.export import SPAN_PIDS
        monkeypatch.setenv("REPRO_TIME_SCALE", "8192")
        monkeypatch.setenv("REPRO_WORKLOADS", "tc")

        def render(name):
            target = tmp_path / f"{name}.json"
            assert cli_main(["report", str(tmp_path / f"{name}.md"),
                             "--only", "fig11", "--trace-out",
                             str(target), "--cache-dir",
                             str(tmp_path / "cache")]) == 0
            payload = json.loads(target.read_text())
            assert validate_chrome_trace(payload) is None
            return collections.Counter(
                json.dumps(e, sort_keys=True)
                for e in payload["traceEvents"]
                if e["ph"] != "M" and e["pid"] not in SPAN_PIDS.values())

        cold = render("cold")
        warm = render("warm")
        assert "from cache" in (tmp_path / "warm.md").read_text()
        assert cold and warm == cold


class TestCacheHitsFoldIntoTheScope:
    def test_hits_replay_metrics_and_events_but_not_spans(self):
        session = SimSession(disk_cache=False, max_workers=1)
        runs = []
        for _ in range(2):  # computed, then every cell a cache hit
            with obs.collecting("metrics", "trace", "spans") as col:
                session.run_many(_jobs() + _jobs())
            runs.append(col)
        cold, warm = runs
        assert session.last_batch.cache_hits == 4
        assert warm.metrics.snapshot() == cold.metrics.snapshot()
        assert sorted(map(tuple, warm.trace.as_list())) \
            == sorted(map(tuple, cold.trace.as_list()))
        kernels = [[s for s in col.spans.as_list()
                    if s[1].startswith("kernel:")] for col in runs]
        assert len(kernels[0]) == 2 and kernels[1] == []

    def test_a_worker_ships_back_what_the_parent_asked_for(self):
        with obs.collecting("metrics", "trace", trace_limit=7) as parent:
            kinds, limit = obs.shipment()
            assert (kinds, limit) == ({"metrics", "trace"}, 7)
            with obs.suppressed():  # a worker has no sinks of its own
                with obs.collecting(*kinds, trace_limit=limit) as worker:
                    worker.metrics.counter("n").inc(2)
                    worker.trace.instant(5, "ACT")
            assert worker.trace.limit == 7
            obs.absorb(worker.dumps())
        assert parent.metrics.snapshot()["n"]["value"] == 2
        assert parent.trace.as_list() == [[5, "I", "ACT", 0, -1]]

    def test_satisfies_asks_only_for_requested_carried_kinds(self):
        from types import SimpleNamespace
        bare = SimpleNamespace(metrics=None, trace_events=None,
                               spans=None)
        assert obs.satisfies(bare)
        with obs.collecting("metrics", "profile"):
            assert not obs.satisfies(bare)
            assert obs.satisfies(SimpleNamespace(
                metrics={}, trace_events=None, spans=None))
            assert obs.satisfies(42)  # a result that carries no sink
