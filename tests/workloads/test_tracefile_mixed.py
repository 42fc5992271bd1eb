"""Tests for trace file I/O and mixed (multi-programmed) workloads."""

import io

import pytest

from repro.cpu.trace import TraceEntry, take
from repro.params import SimScale, SystemConfig
from repro.workloads.mixed import PAPER_MIXES, MixedWorkload
from repro.workloads.tracefile import (
    load_trace,
    read_trace,
    write_trace,
)


def entries(n=5):
    return [TraceEntry(compute_ps=100 + i, instructions=10 + i,
                       subchannel=i % 2, bank=i % 4, row=i * 7)
            for i in range(n)]


class TestTraceFile:
    def test_roundtrip_via_path(self, tmp_path):
        path = str(tmp_path / "t.trace")
        original = entries(20)
        assert write_trace(original, path) == 20
        assert load_trace(path) == original

    def test_roundtrip_via_file_object(self):
        buffer = io.StringIO()
        original = entries(3)
        write_trace(original, buffer)
        buffer.seek(0)
        assert load_trace(buffer) == original

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n100 10 0 1 42\n  \n# tail\n"
        assert load_trace(io.StringIO(text)) == [
            TraceEntry(100, 10, 0, 1, 42)]

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="expected 5 fields"):
            load_trace(io.StringIO("1 2 3\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            load_trace(io.StringIO("a 2 3 4 5\n"))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            load_trace(io.StringIO("-1 2 3 4 5\n"))

    def test_error_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            load_trace(io.StringIO("# c\n1 2 3 4 5\nbroken\n"))

    def test_lazy_reading(self):
        text = "1 2 3 4 5\nbroken line\n"
        reader = read_trace(io.StringIO(text))
        assert next(reader) == TraceEntry(1, 2, 3, 4, 5)
        with pytest.raises(ValueError):
            next(reader)


class TestMixedWorkload:
    def test_members_round_robin_over_cores(self):
        mix = MixedWorkload(["cc", "blender"],
                            scale=SimScale(512))
        names = [spec.name for spec in mix.assignments]
        assert names == ["cc", "blender"] * 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MixedWorkload([])

    def test_traces_reflect_member_intensity(self):
        mix = MixedWorkload(["cc", "blender"], scale=SimScale(512))
        cc_entries = take(mix.trace(0), 50)
        blender_entries = take(mix.trace(1), 50)
        cc_pace = sum(e.compute_ps for e in cc_entries)
        blender_pace = sum(e.compute_ps for e in blender_entries)
        assert blender_pace > cc_pace  # blender is far lighter

    def test_paper_mixes_all_defined(self):
        assert sorted(PAPER_MIXES) == [f"mix_{i}" for i in
                                       range(1, 7)]
        for name in PAPER_MIXES:
            mix = MixedWorkload.paper_mix(name, scale=SimScale(512))
            assert len(mix.assignments) == 8

    def test_unknown_mix_raises(self):
        with pytest.raises(KeyError):
            MixedWorkload.paper_mix("mix_99")

    def test_mlp_is_max_of_members(self):
        mix = MixedWorkload(["cc", "blender"], scale=SimScale(512))
        assert mix.mlp == max(g.mlp for g in mix._generators)

    def test_runs_through_the_system(self):
        mix = MixedWorkload(["tc", "blender"], scale=SimScale(2048))
        from repro.cpu.system import MultiCoreSystem
        config = SystemConfig()
        system = MultiCoreSystem(config, mix.trace_factory(),
                                 mlp=mix.mlp)
        result = system.run(SimScale(2048).scaled_trefw(config.timings))
        assert result.total_requests > 0
        # Heavy members out-issue light ones.
        assert result.instructions[0] != result.instructions[1]
