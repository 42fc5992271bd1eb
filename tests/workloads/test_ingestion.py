"""Tests for external-trace ingestion: formats, gzip, conversion."""

import gzip
import io

import pytest

from repro.cpu.trace import TraceEntry
from repro.dram.mapping import AddressSpaceSpec, BitFieldDecoder
from repro.params import DramGeometry
from repro.workloads.tracefile import (
    TraceFileWorkload,
    convert_trace,
    detect_format,
    load_trace,
    open_ingest,
    read_dramsim3_trace,
    read_litex_rows,
    trace_metadata,
    write_trace,
)

GEOMETRY = DramGeometry()
DECODER = BitFieldDecoder.for_geometry(GEOMETRY)


def entries(n=6):
    return [TraceEntry(compute_ps=100 * i, instructions=10,
                       subchannel=i % 2, bank=i % 4, row=i * 11)
            for i in range(n)]


def dramsim3_text(records):
    """Render ``(subch, bank, row, col, cycle)`` records as a trace."""
    lines = ["# comment"]
    for subch, bank, row, col, cycle in records:
        address = DECODER.encode_bus(subchannel=subch, bank=bank,
                                     row=row, column=col)
        lines.append(f"0x{address:x} READ {cycle}")
    return "\n".join(lines) + "\n"


class TestGzipTransparency:
    def test_native_round_trip_via_gz(self, tmp_path):
        path = str(tmp_path / "t.trace.gz")
        original = entries()
        write_trace(original, path, metadata={"workload": "tc"})
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("#")
        assert load_trace(path) == original
        assert trace_metadata(path) == {"workload": "tc"}

    def test_dramsim3_ingest_via_gz(self, tmp_path):
        path = str(tmp_path / "t.ds3.gz")
        with gzip.open(path, "wt") as handle:
            handle.write(dramsim3_text([(1, 3, 42, 0, 0),
                                        (1, 3, 42, 1, 5)]))
        got = list(open_ingest(path))
        assert [(e.subchannel, e.bank, e.row) for e in got] \
            == [(1, 3, 42), (1, 3, 42)]


class TestDramsim3Format:
    def test_coordinates_and_cycle_deltas(self):
        text = dramsim3_text([(0, 7, 123, 0, 10), (1, 2, 456, 3, 16)])
        got = list(read_dramsim3_trace(io.StringIO(text),
                                       cycle_ps=100, instructions=4))
        assert got[0] == TraceEntry(0, 4, 0, 7, 123)
        assert got[1] == TraceEntry(600, 4, 1, 2, 456)

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="expected 3 fields"):
            list(read_dramsim3_trace(io.StringIO("0x0 READ\n")))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            list(read_dramsim3_trace(io.StringIO("zap READ 3\n")))

    def test_decreasing_cycle_rejected(self):
        text = dramsim3_text([(0, 0, 1, 0, 10), (0, 0, 2, 0, 4)])
        with pytest.raises(ValueError, match="line 3"):
            list(read_dramsim3_trace(io.StringIO(text)))

    def test_error_names_source_path(self, tmp_path):
        path = str(tmp_path / "bad.ds3")
        with open(path, "w") as handle:
            handle.write("not a record\n")
        with pytest.raises(ValueError, match="bad.ds3"):
            list(read_dramsim3_trace(path))


class TestLitexRowsFormat:
    def test_rows_become_single_bank_entries(self):
        got = list(read_litex_rows(io.StringIO("4\n0x10\n# c\n7\n"),
                                   bank=5, subchannel=1))
        assert [(e.subchannel, e.bank, e.row) for e in got] \
            == [(1, 5, 4), (1, 5, 16), (1, 5, 7)]

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            list(read_litex_rows(io.StringIO("banana\n")))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            list(read_litex_rows(io.StringIO("-3\n")))

    def test_error_names_source_path(self, tmp_path):
        path = str(tmp_path / "bad.rows")
        with open(path, "w") as handle:
            handle.write("x\n")
        with pytest.raises(ValueError, match="bad.rows"):
            list(read_litex_rows(path))


class TestDetectAndConvert:
    @pytest.mark.parametrize("path, fmt", [
        ("a.trace", "native"), ("a.ds3", "dramsim3"),
        ("a.dramsim3.gz", "dramsim3"), ("a.rows", "litex-rows"),
        ("a.litex", "litex-rows"), ("a.anything", "native"),
    ])
    def test_detect_format_by_suffix(self, path, fmt):
        assert detect_format(path) == fmt

    def test_convert_records_metadata_claim(self, tmp_path):
        src = str(tmp_path / "in.ds3")
        dst = str(tmp_path / "out.trace")
        with open(src, "w") as handle:
            handle.write(dramsim3_text([(0, 1, 2, 0, 0),
                                        (0, 1, 2, 1, 6)]))
        count = convert_trace(src, dst, workload="tc",
                              instructions=11)
        assert count == 2
        meta = trace_metadata(dst)
        assert meta["workload"] == "tc"
        assert meta["source"] == src
        assert all(e.instructions == 11 for e in load_trace(dst))

    def test_auto_needs_a_path(self):
        with pytest.raises(ValueError, match="auto"):
            list(open_ingest(io.StringIO("")))


class TestTraceFileWorkloadRouting:
    def test_address_space_spec_translates_entries(self, tmp_path):
        path = str(tmp_path / "t.trace")
        write_trace([TraceEntry(0, 1, 0, 2, 100)], path)
        spec = AddressSpaceSpec(kind="strided", stride=3,
                                row_offset=5, bank_offset=1)
        workload = TraceFileWorkload(path, address_space=spec,
                                     geometry=GEOMETRY)
        entry = next(iter(workload.trace(0)))
        assert (entry.subchannel, entry.bank, entry.row) \
            == (0, 3, 305)

    def test_workload_claim_read_from_metadata(self, tmp_path):
        path = str(tmp_path / "t.trace")
        write_trace(entries(), path, metadata={"workload": "mcf"})
        assert TraceFileWorkload(path).workload == "mcf"

    def test_shard_splits_contiguously(self, tmp_path):
        path = str(tmp_path / "t.trace")
        original = entries(8)
        write_trace(original, path)
        workload = TraceFileWorkload(path, per_core="shard",
                                     shard_cores=4)
        shards = [workload.shard(4, core) for core in range(4)]
        assert [e for shard in shards for e in shard] == original

    def test_chunk_source_covers_the_trace(self, tmp_path):
        path = str(tmp_path / "t.trace")
        original = entries(10)
        write_trace(original, path)
        source = TraceFileWorkload(path).chunk_source(0)
        seen = []
        while True:
            chunk = source.next_chunk()
            if chunk is None:
                break
            seen.extend(TraceEntry(*tup) for tup in chunk)
        assert seen == original
