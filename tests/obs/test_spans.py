"""Tests for session-level span tracing: recorder, export, session.

Covers the guarantees docs/observability.md promises for spans: the
bounded recorder and its outward-folding scopes, the Chrome ``X``
export on the reserved span tracks, and the session integration --
every executed cell appears exactly once with its disposition, and
serial vs process-pool batches record identical span populations.
"""

import dataclasses
import json

import pytest

from repro.obs.export import (
    SPAN_PIDS,
    chrome_span_events,
    sanitize_span_records,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro import obs
from repro.obs.spans import TRACK_WORKER, SpanRecorder
from repro.params import SimScale
from repro.sim.registry import setup_by_name
from repro.sim.session import FailurePolicy, SimJob, SimSession

SCALE = SimScale(2048)  # ~16 us windows: smoke-test speed


def _jobs():
    setup = setup_by_name("mirza", SCALE)
    return [SimJob(w, setup, SCALE, seed=0) for w in ("tc", "lbm")]


class TestSpanRecorder:
    def test_add_and_as_list(self):
        rec = SpanRecorder()
        rec.add("session", "run_many", 100.0, 50.0, {"cells": 2})
        assert rec.as_list() == [
            ["session", "run_many", 100.0, 50.0, {"cells": 2}]]

    def test_as_list_copies_meta(self):
        rec = SpanRecorder()
        meta = {"k": 1}
        rec.add("session", "a", 0.0, 1.0, meta)
        exported = rec.as_list()
        exported[0][4]["k"] = 99
        assert rec.as_list()[0][4] == {"k": 1}

    def test_cap_keeps_newest_and_counts_drops(self):
        rec = SpanRecorder(limit=2)
        for i in range(4):
            rec.add("session", f"s{i}", float(i), 1.0)
        assert len(rec) == 2
        assert rec.dropped == 2
        assert [s[1] for s in rec.as_list()] == ["s2", "s3"]

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            SpanRecorder(limit=0)

    def test_span_context_manager_attaches_attrs(self):
        rec = SpanRecorder()
        with rec.span("worker", "kernel:event", {"pid": 7}) as attrs:
            attrs["requests"] = 42
        (track, name, start, dur, meta), = rec.as_list()
        assert (track, name) == ("worker", "kernel:event")
        assert start > 0 and dur >= 0
        assert meta == {"pid": 7, "requests": 42}

    def test_span_records_even_when_body_raises(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("session", "workers"):
                raise RuntimeError("boom")
        assert [s[1] for s in rec.as_list()] == ["workers"]

    def test_nested_recording_scopes_fold_outward(self):
        with obs.collecting("spans") as outer:
            with obs.collecting("spans") as inner:
                inner.spans.add("session", "child", 1.0, 2.0)
        assert [s[1] for s in outer.spans.as_list()] == ["child"]

    def test_env_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        assert "spans" not in obs.requested()
        monkeypatch.setenv("REPRO_SPANS", "1")
        assert "spans" in obs.requested()


class TestSpanExport:
    SPANS = [
        ["session", "run_many", 1000.0, 500.0, {"submitted": 2}],
        ["session", "cell:tc/mirza-1000", 1100.0, 200.0,
         {"disposition": "computed", "attempts": 1}],
        ["worker", "kernel:event", 1150.0, 120.0, {"pid": 1234}],
    ]

    def test_spans_become_x_events_on_reserved_pids(self):
        records = chrome_span_events(self.SPANS)
        xs = [r for r in records if r["ph"] == "X"]
        assert len(xs) == 3
        by_name = {r["name"]: r for r in xs}
        assert by_name["run_many"]["pid"] == SPAN_PIDS["session"]
        assert by_name["kernel:event"]["pid"] == SPAN_PIDS["worker"]
        assert by_name["kernel:event"]["tid"] == 1234
        assert by_name["cell:tc/mirza-1000"]["args"]["disposition"] == \
            "computed"

    def test_track_metadata_labels_lanes(self):
        records = chrome_span_events(self.SPANS)
        names = {(r["pid"], r["tid"]): r["args"]["name"]
                 for r in records if r["ph"] == "M"
                 and r["name"] == "thread_name"}
        assert names[(SPAN_PIDS["worker"], 1234)] == "pid 1234"

    def test_merged_trace_with_spans_validates(self, tmp_path):
        events = [[100, "I", "ACT", 0, 3],
                  [200, "B", "REF", 0, -1], [260, "E", "REF", 0, -1]]
        target = tmp_path / "trace.json"
        write_chrome_trace(events, str(target), spans=self.SPANS)
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert SPAN_PIDS["session"] in pids
        assert SPAN_PIDS["worker"] in pids

    def test_sanitizer_drops_negative_and_sorts(self):
        records = [
            {"name": "b", "ph": "X", "pid": 9000, "tid": 0,
             "ts": 5.0, "dur": 1.0, "args": {}},
            {"name": "bad", "ph": "X", "pid": 9000, "tid": 0,
             "ts": 1.0, "dur": -4.0, "args": {}},
            {"name": "nodur", "ph": "X", "pid": 9000, "tid": 0,
             "ts": 2.0, "args": {}},
            {"name": "a", "ph": "X", "pid": 9000, "tid": 0,
             "ts": 1.0, "dur": 2.0, "args": {}},
        ]
        kept = sanitize_span_records(records)
        assert [r["name"] for r in kept] == ["a", "b"]

    def test_validator_rejects_negative_duration(self):
        bad = [{"name": "x", "ph": "X", "pid": 0, "tid": 0,
                "ts": 1.0, "dur": -1.0}]
        assert "negative duration" in validate_chrome_trace(bad)

    def test_validator_rejects_missing_duration(self):
        bad = [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0}]
        assert "lacks a numeric dur" in validate_chrome_trace(bad)

    def test_validator_accepts_well_formed_x(self):
        good = [{"name": "x", "ph": "X", "pid": 0, "tid": 0,
                 "ts": 1.0, "dur": 0.0}]
        assert validate_chrome_trace(good) is None


def _cells(rec):
    """(name, disposition) of every cell span in the recorder."""
    return [(s[1], s[4].get("disposition")) for s in rec.as_list()
            if s[1].startswith("cell:")]


class TestSessionSpans:
    def _run(self, workers, session=None):
        if session is None:
            session = SimSession(disk_cache=False, max_workers=workers)
        with obs.collecting("spans") as col:
            results = session.run_many(_jobs())
        return col.spans, results

    def test_every_cell_exactly_once_with_disposition(self):
        rec, results = self._run(1)
        assert sorted(_cells(rec)) == [
            ("cell:lbm/mirza-1000", "computed"),
            ("cell:tc/mirza-1000", "computed")]
        names = [s[1] for s in rec.as_list()]
        assert names.count("run_many") == 1
        assert names.count("workers") == 1
        assert names.count("kernel:event") == 2

    def test_serial_and_pool_span_populations_identical(self):
        rec1, res1 = self._run(1)
        rec2, res2 = self._run(2)
        names1 = sorted(s[1] for s in rec1.as_list())
        names2 = sorted(s[1] for s in rec2.as_list())
        assert names1 == names2
        assert sorted(_cells(rec1)) == sorted(_cells(rec2))
        assert [r.spans is not None for r in res1] == \
            [r.spans is not None for r in res2]

    def test_second_batch_is_all_cache_hits(self):
        session = SimSession(disk_cache=False, max_workers=1)
        self._run(1, session=session)
        rec, _ = self._run(1, session=session)
        assert sorted(_cells(rec)) == [
            ("cell:lbm/mirza-1000", "cache-hit"),
            ("cell:tc/mirza-1000", "cache-hit")]
        hits = [s for s in rec.as_list() if s[1].startswith("cell:")]
        assert all(s[4]["attempts"] == 0 for s in hits)

    def test_batch_spans_each_calibration_once(self):
        for workers in (1, 2):
            session = SimSession(disk_cache=False, max_workers=workers)
            rec, _ = self._run(workers, session=session)
            calibrations = [(s[1], s[4]["disposition"])
                            for s in rec.as_list()
                            if s[1].startswith("calibrate:")]
            assert sorted(calibrations) == [
                ("calibrate:lbm/x2048/seed0", "computed"),
                ("calibrate:tc/x2048/seed0", "computed")], workers
            assert len(_cells(rec)) == 2
            # lbm calibrates once tc's cell is under way, not before:
            # serially after it ran, pooled after it was submitted.
            starts = {s[1]: s[2] for s in rec.as_list()}
            assert starts["cell:tc/mirza-1000"] \
                < starts["calibrate:lbm/x2048/seed0"], workers
            # New cells on the same keys read the calibrations from the
            # session's cache: no calibrate spans.
            setup = setup_by_name("prac-1000", SCALE)
            with obs.collecting("spans") as again:
                session.run_many([SimJob(w, setup, SCALE, seed=0)
                                  for w in ("tc", "lbm")])
            assert len(_cells(again.spans)) == 2
            assert not any(s[1].startswith("calibrate:")
                           for s in again.spans.as_list())

    def test_worker_spans_carry_pid_and_kernel_counts(self):
        rec, results = self._run(2)
        kernels = [s for s in rec.as_list()
                   if s[1] == "kernel:event"]
        assert len(kernels) == 2
        for span in kernels:
            assert span[0] == TRACK_WORKER
            assert span[4]["pid"] > 0
            assert span[4]["requests"] > 0

    def test_retried_disposition(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        session = SimSession(disk_cache=False, max_workers=1,
                             max_retries=1)
        with obs.collecting("spans") as col:
            session.run_many([_jobs()[0]])
        (name, disposition), = _cells(col.spans)
        assert disposition == "retried"
        cell = [s for s in col.spans.as_list()
                if s[1].startswith("cell:")][0]
        assert cell[4]["attempts"] == 2

    def test_failed_disposition_under_keep_going(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        session = SimSession(disk_cache=False, max_workers=1,
                             max_retries=0,
                             failure_policy=FailurePolicy.KEEP_GOING)
        with obs.collecting("spans") as col:
            session.run_many([_jobs()[0]])
        (_, disposition), = _cells(col.spans)
        assert disposition == "failed"

    def test_untokened_cell_is_spanned(self):
        from repro.sim.runner import prac_setup
        setup = prac_setup(1000)
        factory = setup.tracker_factory
        opaque = dataclasses.replace(
            setup,
            tracker_factory=lambda seed, subch, bank: factory(
                seed, subch, bank))
        job = SimJob("tc", opaque, SCALE)
        session = SimSession(disk_cache=False, max_workers=1)
        with obs.collecting("spans") as col:
            session.run_many([job])
        cells = _cells(col.spans)
        assert len(cells) == 1
        assert cells[0][1] == "computed"

    def test_results_carry_spans_when_requested(self):
        _, results = self._run(1)
        for result in results:
            assert any(s[1] == "kernel:event" for s in result.spans)

    def test_no_spans_when_not_requested(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        session = SimSession(disk_cache=False, max_workers=1)
        result = session.run_many([_jobs()[0]])[0]
        assert result.spans is None

    def test_batch_gauges_in_session_registry(self):
        session = SimSession(disk_cache=False, max_workers=1)
        session.run_many(_jobs())
        session.run_many(_jobs())  # second batch: all cache hits
        snap = session.obs_snapshot()
        assert snap["session.jobs_submitted"]["value"] == 4
        assert snap["session.cache_hits"]["value"] == 2
        assert snap["session.cache.hit_rate"]["value"] == 100.0
        assert snap["session.queue_depth"]["count"] == 4
        assert snap["session.pool.workers"]["value"] == 1

    def test_batch_stats_utilization_and_hit_rate(self):
        session = SimSession(disk_cache=False, max_workers=1)
        session.run_many(_jobs())
        batch = session.last_batch
        assert batch.workers == 1
        assert batch.wall_seconds > 0
        assert 0.0 < batch.utilization <= 1.0
        assert batch.hit_rate == 0.0


class TestProgressLine:
    def test_update_properties(self):
        from repro.obs.progress import ProgressUpdate
        up = ProgressUpdate(done=2, total=8, cache_hits=1, retried=0,
                            failed=0, elapsed_s=4.0)
        assert up.hit_rate == 0.5
        assert up.eta_s == pytest.approx(12.0)
        none_yet = ProgressUpdate(done=0, total=8, cache_hits=0,
                                  retried=0, failed=0, elapsed_s=0.0)
        assert none_yet.eta_s is None
        finished = ProgressUpdate(done=8, total=8, cache_hits=0,
                                  retried=0, failed=0, elapsed_s=1.0)
        assert finished.eta_s == 0.0

    def test_interactive_redraws_one_line(self):
        import io
        from repro.obs.progress import ProgressLine, ProgressUpdate
        sink = io.StringIO()
        line = ProgressLine(stream=sink, interactive=True,
                            min_interval_s=0.0)
        line(ProgressUpdate(1, 2, 0, 0, 0, 0.5))
        line(ProgressUpdate(2, 2, 1, 0, 0, 1.0))
        line.close()
        text = sink.getvalue()
        assert text.count("\r\x1b[K") == 2
        assert text.endswith("\n")
        assert "[2/2] 100%" in text

    def test_non_tty_throttles_but_renders_final(self):
        import io
        from repro.obs.progress import ProgressLine, ProgressUpdate
        sink = io.StringIO()
        line = ProgressLine(stream=sink, interactive=False)
        for done in range(1, 5):
            line(ProgressUpdate(done, 4, 0, 0, 0, done * 0.01))
        line.close()
        lines = [l for l in sink.getvalue().splitlines() if l]
        # Interval throttling swallows the middle updates; the final
        # one always lands.
        assert lines[-1].startswith("[4/4] 100%")
        assert len(lines) <= 2

    def test_session_invokes_progress_per_cell(self):
        from repro.obs.progress import ProgressUpdate
        seen = []
        session = SimSession(disk_cache=False, max_workers=1,
                             progress=seen.append)
        session.run_many(_jobs())
        assert all(isinstance(u, ProgressUpdate) for u in seen)
        # Each workload key ticks once, as the first job reading it
        # comes up, naming it without counting a cell; then its cell.
        assert [(u.done, u.total, u.last) for u in seen] == [
            (0, 2, "calibrate:tc/x2048/seed0"),
            (1, 2, "tc/mirza-1000"),
            (1, 2, "calibrate:lbm/x2048/seed0"),
            (2, 2, "lbm/mirza-1000")]

    def test_calibration_ticks_keep_the_line_monotone(self):
        # A batch mixing cache hits and misses: the hits tick first,
        # then each calibration ahead of its cell.  The count never
        # moves back, and only the batch's last cell reads as final.
        import io
        from repro.obs.progress import ProgressLine
        setup = setup_by_name("mirza", SCALE)
        seen = []
        session = SimSession(disk_cache=False, max_workers=1,
                             progress=seen.append)
        session.run_many([SimJob("tc", setup, SCALE)])
        seen.clear()
        session.run_many([SimJob(w, setup, SCALE)
                          for w in ("tc", "lbm", "mcf")])
        assert [(u.done, u.total, u.last) for u in seen] == [
            (1, 3, "tc/mirza-1000"),
            (1, 3, "calibrate:lbm/x2048/seed0"),
            (2, 3, "lbm/mirza-1000"),
            (2, 3, "calibrate:mcf/x2048/seed0"),
            (3, 3, "mcf/mirza-1000")]
        sink = io.StringIO()
        line = ProgressLine(stream=sink, interactive=True,
                            min_interval_s=0.0)
        for update in seen:
            line(update)
        frames = sink.getvalue().split("\r\x1b[K")[1:]
        assert [frame.split(" | ")[0] for frame in frames] == [
            "[1/3]  33%", "[1/3]  33%", "[2/3]  67%", "[2/3]  67%",
            "[3/3] 100%"]
