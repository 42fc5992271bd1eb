"""Tests for the row-to-subarray mappings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.params import DramGeometry


class TestSequentialR2SA:
    def test_identity_physical_index(self):
        m = SequentialR2SA()
        assert m.physical_index(12345) == 12345
        assert m.logical_row(777) == 777

    def test_consecutive_rows_same_subarray(self):
        m = SequentialR2SA()
        assert m.subarray_of(0) == m.subarray_of(1023)
        assert m.subarray_of(1024) == 1

    def test_neighbors_are_adjacent_logical_rows(self):
        m = SequentialR2SA()
        assert sorted(m.physical_neighbors(100, 2)) == [98, 99, 101, 102]

    def test_neighbors_clamped_at_subarray_edge(self):
        m = SequentialR2SA()
        # Row 0 is at the bottom edge of subarray 0.
        assert sorted(m.physical_neighbors(0, 2)) == [1, 2]
        # Row 1023 is at the top edge of subarray 0; 1024 is in
        # subarray 1 and electrically isolated.
        assert sorted(m.physical_neighbors(1023, 2)) == [1021, 1022]


class TestStridedR2SA:
    def test_consecutive_rows_different_subarrays(self):
        m = StridedR2SA()
        assert m.subarray_of(0) == 0
        assert m.subarray_of(1) == 1
        assert m.subarray_of(127) == 127
        assert m.subarray_of(128) == 0

    def test_every_128th_row_same_subarray(self):
        m = StridedR2SA()
        subarrays = {m.subarray_of(r) for r in range(0, 128 * 50, 128)}
        assert subarrays == {0}

    def test_physical_neighbors_are_stride_apart(self):
        m = StridedR2SA()
        row = 5 * 128 + 17  # position 5 in subarray 17
        assert sorted(m.physical_neighbors(row, 1)) == [row - 128,
                                                        row + 128]

    def test_neighbors_share_subarray(self):
        m = StridedR2SA()
        for victim in (1000, 54321, 99999):
            sa = m.subarray_of(victim)
            for n in m.physical_neighbors(victim, 2):
                assert m.subarray_of(n) == sa

    @given(st.integers(min_value=0, max_value=128 * 1024 - 1))
    @settings(max_examples=300)
    def test_bijection(self, row):
        m = StridedR2SA()
        p = m.physical_index(row)
        assert 0 <= p < 128 * 1024
        assert m.logical_row(p) == row

    @given(st.integers(min_value=0, max_value=4095))
    @settings(max_examples=100)
    def test_small_geometry_bijection(self, row):
        g = DramGeometry(rows_per_bank=4096, rows_per_subarray=1024)
        m = StridedR2SA(g)
        assert m.logical_row(m.physical_index(row)) == row

    def test_contiguous_block_spreads_over_all_subarrays(self):
        # The property that makes CGF work: a contiguous working set
        # lands evenly across subarrays under strided mapping.
        m = StridedR2SA()
        block = range(10_000, 10_000 + 1280)
        per_subarray = {}
        for row in block:
            sa = m.subarray_of(row)
            per_subarray[sa] = per_subarray.get(sa, 0) + 1
        assert len(per_subarray) == 128
        assert max(per_subarray.values()) == 10

    def test_contiguous_block_concentrates_under_sequential(self):
        m = SequentialR2SA()
        block = range(10_240, 10_240 + 1280)
        subarrays = {m.subarray_of(r) for r in block}
        assert len(subarrays) == 2


class TestNeighborSymmetry:
    def test_symmetry_sequential(self):
        m = SequentialR2SA()
        for victim in (10, 512, 2047):
            for aggressor in m.physical_neighbors(victim, 2):
                assert victim in m.physical_neighbors(aggressor, 2)

    def test_symmetry_strided(self):
        m = StridedR2SA()
        for victim in (1000, 5000):
            for aggressor in m.physical_neighbors(victim, 2):
                assert victim in m.physical_neighbors(aggressor, 2)



class TestMappingFor:
    """One resolver turns a mapping name into a mapping, for setups,
    MIRZA trackers, counting filters and fuzz cells alike."""

    def test_names_resolve(self):
        from repro.dram.mapping import mapping_for
        geometry = DramGeometry()
        assert type(mapping_for("sequential", geometry)) is SequentialR2SA
        assert type(mapping_for("strided", geometry)) is StridedR2SA

    def test_unknown_name_raises_everywhere(self):
        import pytest

        from repro.experiments.common import RctFilter
        from repro.params import SystemConfig
        from repro.sim.runner import MitigationSetup, mirza_setup

        with pytest.raises(ValueError, match="strdied"):
            MitigationSetup("x", mapping="strdied").make_mapping(
                SystemConfig())
        factory = mirza_setup(1000, mapping="strdied").tracker_factory
        with pytest.raises(ValueError, match="strdied"):
            factory(0, 0, 0)
        with pytest.raises(ValueError, match="strdied"):
            RctFilter("strdied", 1500)
