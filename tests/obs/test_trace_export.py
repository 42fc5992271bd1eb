"""Tests for the event ring buffer and the JSONL/Chrome exporters."""

import io
import json

import pytest

from repro.obs.export import (
    CHANNEL_TID,
    chrome_trace_events,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro import obs
from repro.obs.trace import CHANNEL_LANE, TraceBuffer


class TestTraceBuffer:
    def test_emit_and_as_list(self):
        buf = TraceBuffer()
        buf.instant(100, "ACT", 0, 3)
        buf.window(200, 250, "REF", 1)
        assert buf.as_list() == [
            [100, "I", "ACT", 0, 3],
            [200, "B", "REF", 1, CHANNEL_LANE],
            [250, "E", "REF", 1, CHANNEL_LANE],
        ]

    def test_ring_keeps_newest_and_counts_drops(self):
        buf = TraceBuffer(limit=3)
        for ts in range(5):
            buf.instant(ts, "ACT")
        assert len(buf) == 3
        assert buf.dropped == 2
        assert [e[0] for e in buf.as_list()] == [2, 3, 4]

    def test_extend_folds_lists(self):
        a, b = TraceBuffer(), TraceBuffer()
        a.instant(1, "ACT")
        b.instant(2, "ALERT")
        a.extend(b.as_list())
        assert [e[2] for e in a.as_list()] == ["ACT", "ALERT"]

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            TraceBuffer(limit=0)

    def test_nested_tracing_scopes_merge_outward(self):
        with obs.collecting("trace") as outer:
            with obs.collecting("trace") as inner:
                inner.trace.instant(5, "ACT")
        assert outer.trace.as_list() == [[5, "I", "ACT", 0, CHANNEL_LANE]]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_events(self):
        events = [[100, "I", "ACT", 0, 3],
                  [200, "B", "STALL", 1, CHANNEL_LANE],
                  [260, "E", "STALL", 1, CHANNEL_LANE]]
        sink = io.StringIO()
        assert write_jsonl(events, sink) == 3
        assert read_jsonl(io.StringIO(sink.getvalue())) == events

    def test_file_round_trip(self, tmp_path):
        events = [[1, "I", "ALERT", 0, CHANNEL_LANE]]
        path = str(tmp_path / "events.jsonl")
        write_jsonl(events, path)
        assert read_jsonl(path) == events

    def test_lines_are_json_objects(self):
        sink = io.StringIO()
        write_jsonl([[7, "I", "ACT", 1, 2]], sink)
        record = json.loads(sink.getvalue())
        assert record == {"ts": 7, "ph": "I", "name": "ACT",
                          "subch": 1, "bank": 2}


class TestChromeExport:
    def test_jsonl_to_chrome_round_trip_validates(self):
        events = [[300, "B", "REF", 0, CHANNEL_LANE],
                  [100, "I", "ACT", 0, 4],
                  [350, "E", "REF", 0, CHANNEL_LANE],
                  [120, "I", "ACT", 1, 9]]
        sink = io.StringIO()
        write_jsonl(events, sink)
        reloaded = read_jsonl(io.StringIO(sink.getvalue()))
        out = io.StringIO()
        write_chrome_trace(reloaded, out)
        payload = json.loads(out.getvalue())
        assert validate_chrome_trace(payload) is None
        assert payload["traceEvents"]

    def test_timestamps_sorted_and_scaled_to_us(self):
        records = chrome_trace_events([[2_000_000, "I", "ACT", 0, 1],
                                       [1_000_000, "I", "ACT", 0, 1]])
        timed = [r for r in records if r["ph"] != "M"]
        assert [r["ts"] for r in timed] == [1.0, 2.0]

    def test_lane_metadata_per_bank_and_channel(self):
        records = chrome_trace_events(
            [[1, "I", "ACT", 0, 5],
             [2, "I", "ALERT", 0, CHANNEL_LANE]])
        meta = {(r["pid"], r["tid"]): r["args"]["name"]
                for r in records if r["ph"] == "M"
                and r["name"] == "thread_name"}
        assert meta[(0, 5)] == "bank 5"
        assert meta[(0, CHANNEL_TID)] == "channel"

    def test_orphan_end_is_dropped(self):
        records = chrome_trace_events([[50, "E", "REF", 0,
                                        CHANNEL_LANE]])
        assert all(r["ph"] == "M" for r in records)

    def test_unclosed_begin_is_closed_at_trace_end(self):
        records = chrome_trace_events(
            [[10, "B", "STALL", 0, CHANNEL_LANE],
             [99, "I", "ACT", 0, 1]])
        assert validate_chrome_trace(records) is None
        ends = [r for r in records if r["ph"] == "E"]
        assert len(ends) == 1
        assert ends[0]["ts"] == pytest.approx(99 / 1_000_000)

    def test_paired_b_e_survive_export(self):
        records = chrome_trace_events(
            [[10, "B", "RFM", 0, 2], [60, "E", "RFM", 0, 2]])
        phases = [r["ph"] for r in records if r["ph"] in "BE"]
        assert phases == ["B", "E"]


class TestValidator:
    def test_rejects_backwards_time(self):
        bad = [{"name": "a", "ph": "i", "pid": 0, "tid": 0, "ts": 5,
                "s": "t"},
               {"name": "a", "ph": "i", "pid": 0, "tid": 0, "ts": 4,
                "s": "t"}]
        assert "back in time" in validate_chrome_trace(bad)

    def test_rejects_unbalanced_windows(self):
        bad = [{"name": "w", "ph": "B", "pid": 0, "tid": 0, "ts": 1}]
        assert "unclosed" in validate_chrome_trace(bad)

    def test_rejects_end_without_begin(self):
        bad = [{"name": "w", "ph": "E", "pid": 0, "tid": 0, "ts": 1}]
        assert "without matching B" in validate_chrome_trace(bad)

    def test_rejects_missing_fields(self):
        assert validate_chrome_trace([{"ph": "i", "ts": 1}]) is not None

    def test_accepts_payload_dict_or_list(self):
        assert validate_chrome_trace({"traceEvents": []}) is None
        assert validate_chrome_trace([]) is None
        assert validate_chrome_trace({"nope": 1}) is not None
