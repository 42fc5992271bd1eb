"""Tests for the adversarial pattern generators."""


import pytest

from repro.cpu.trace import take
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.params import SystemConfig
from repro.workloads.attacks import (
    double_sided_attack_stream,
    feinting_attack_stream,
    performance_attack_trace,
    trr_evasion_pattern,
)


class TestDoubleSided:
    def test_alternates_the_two_neighbors(self):
        m = SequentialR2SA()
        rows = list(double_sided_attack_stream(100, m, 10))
        assert set(rows) == {99, 101}
        assert rows[0] != rows[1]

    def test_strided_neighbors(self):
        m = StridedR2SA()
        victim = 5 * 128 + 3
        rows = set(double_sided_attack_stream(victim, m, 4))
        assert rows == {victim - 128, victim + 128}

    def test_edge_victim_degrades_to_single_sided(self):
        # Row 0 has one physical neighbour; the stream hammers it
        # single-sided instead of crashing (fuzzers pick victims
        # uniformly, edges included).
        m = SequentialR2SA()
        rows = list(double_sided_attack_stream(0, m, 4))
        assert rows == [1, 1, 1, 1]

    def test_edge_victim_rejected_when_strict(self):
        m = SequentialR2SA()
        with pytest.raises(ValueError):
            list(double_sided_attack_stream(0, m, 4,
                                            allow_single_sided=False))


class TestFeinting:
    def test_round_robin_exceeds_tracker_size(self):
        rows = list(feinting_attack_stream(8, 100))
        assert len(set(rows)) == 9  # entries + default decoys
        counts = {r: rows.count(r) for r in set(rows)}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_explicit_decoys(self):
        rows = set(feinting_attack_stream(4, 100, decoys=3))
        assert len(rows) == 7

    def test_zero_decoys_rejected(self):
        # decoys=0 collapses the rotation to exactly the tracker's
        # capacity -- a benign workload, not a feint.
        with pytest.raises(ValueError):
            list(feinting_attack_stream(8, 100, decoys=0))


class TestTrrEvasion:
    def test_target_interleaved_with_decoys(self):
        rows = list(trr_evasion_pattern(4, target_row=50, acts=100,
                                        seed=7))
        assert rows.count(50) >= 5
        assert len(set(rows)) > 8

    def test_exact_act_count(self):
        assert len(list(trr_evasion_pattern(4, 50, 123, seed=7))) == 123

    def test_seed_is_required_and_distinguishes_streams(self):
        with pytest.raises(TypeError):
            list(trr_evasion_pattern(4, 50, 100))
        one = list(trr_evasion_pattern(4, 50, 200, seed=1))
        two = list(trr_evasion_pattern(4, 50, 200, seed=2))
        again = list(trr_evasion_pattern(4, 50, 200, seed=1))
        assert one == again
        assert one != two


class TestPerformanceAttack:
    def test_circular_rows_in_one_bank(self):
        config = SystemConfig()
        entries = take(performance_attack_trace(config, k_rows=6,
                                                bank=3), 30)
        assert all(e.bank == 3 for e in entries)
        rows = [e.row for e in entries]
        assert rows[:6] == rows[6:12]
        assert len(set(rows)) == 6

    def test_row_stride_follows_mapping(self):
        config = SystemConfig()
        stride = config.geometry.subarrays_per_bank
        entries = take(performance_attack_trace(
            config, k_rows=4, row_stride=stride), 4)
        mapping = StridedR2SA(config.geometry)
        subarrays = {mapping.subarray_of(e.row) for e in entries}
        assert len(subarrays) == 1

    def test_back_to_back_compute(self):
        config = SystemConfig()
        entries = take(performance_attack_trace(config, k_rows=2), 10)
        assert all(e.compute_ps == 250 for e in entries)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            next(performance_attack_trace(SystemConfig(), k_rows=0))

