"""Tests for the calibrated synthetic workload generator."""

from itertools import islice

import pytest

from repro.cpu.trace import take
from repro.params import SimScale, SystemConfig
from repro.workloads.specs import ALL_WORKLOADS, workload_by_name
from repro.workloads.synthetic import (
    SyntheticWorkload,
    _bank_placements,
)
from tests.workloads.reference_synthetic import reference_trace_chunks


@pytest.fixture
def cc():
    return SyntheticWorkload(workload_by_name("cc"),
                             SystemConfig(), SimScale(256), seed=1)


class TestPacing:
    def test_target_inter_miss_scales_with_rate(self):
        config, scale = SystemConfig(), SimScale(256)
        heavy = SyntheticWorkload(workload_by_name("cc"), config, scale)
        light = SyntheticWorkload(workload_by_name("blender"), config,
                                  scale)
        assert light.target_inter_miss_ps > heavy.target_inter_miss_ps

    def test_mlp_at_least_one(self):
        for name in ("cc", "blender", "mcf", "tc"):
            syn = SyntheticWorkload(workload_by_name(name),
                                    SystemConfig(), SimScale(256))
            assert syn.mlp >= 1

    def test_heavy_workload_gets_more_mlp(self):
        config, scale = SystemConfig(), SimScale(256)
        heavy = SyntheticWorkload(workload_by_name("cc"), config, scale)
        light = SyntheticWorkload(workload_by_name("blender"), config,
                                  scale)
        assert heavy.mlp > light.mlp


class TestTraceShape:
    def test_entries_well_formed(self, cc):
        config = SystemConfig()
        for entry in take(cc.trace(0), 500):
            assert entry.compute_ps >= 250
            assert 0 <= entry.subchannel < config.geometry.subchannels
            assert 0 <= entry.bank < config.geometry.banks_per_subchannel
            assert 0 <= entry.row < config.geometry.rows_per_bank
            assert entry.instructions == \
                workload_by_name("cc").instructions_per_miss

    def test_burst_rows_repeat(self):
        syn = SyntheticWorkload(workload_by_name("bc"),  # burst = 2
                                SystemConfig(), SimScale(256), seed=3)
        entries = take(syn.trace(0), 400)
        repeats = sum(1 for a, b in zip(entries, entries[1:])
                      if (a.bank, a.row) == (b.bank, b.row))
        assert repeats >= 150  # roughly every other entry pairs up

    def test_burst_tail_is_back_to_back(self):
        syn = SyntheticWorkload(workload_by_name("bc"),
                                SystemConfig(), SimScale(256), seed=3)
        entries = take(syn.trace(0), 400)
        for a, b in zip(entries, entries[1:]):
            if (a.bank, a.row) == (b.bank, b.row):
                assert b.compute_ps == 250

    def test_deterministic_per_seed(self):
        def sample(seed):
            syn = SyntheticWorkload(workload_by_name("cc"),
                                    SystemConfig(), SimScale(256),
                                    seed=seed)
            return take(syn.trace(0), 100)
        assert sample(5) == sample(5)
        assert sample(5) != sample(6)

    def test_cores_get_different_streams(self, cc):
        assert take(cc.trace(0), 50) != take(cc.trace(1), 50)

    def test_bank_stickiness_creates_conflicts(self):
        sticky = SyntheticWorkload(workload_by_name("cc"),
                                   SystemConfig(), SimScale(256),
                                   bank_stickiness=0.9, seed=1)
        loose = SyntheticWorkload(workload_by_name("cc"),
                                  SystemConfig(), SimScale(256),
                                  bank_stickiness=0.0, seed=1)

        def same_bank_rate(syn):
            entries = take(syn.trace(0), 1000)
            same = sum(1 for a, b in zip(entries, entries[1:])
                       if (a.subchannel, a.bank) == (b.subchannel, b.bank)
                       and a.row != b.row)
            return same / len(entries)
        assert same_bank_rate(sticky) > same_bank_rate(loose) + 0.3


class TestDrawsMatchStdlib:
    """The inline draws give the stream ``randrange``/``uniform`` give."""

    @pytest.mark.parametrize("spec", ALL_WORKLOADS, ids=lambda s: s.name)
    def test_trace_chunks_equal_the_stdlib_loop(self, spec):
        for seed in (0, 1, 7):
            syn = SyntheticWorkload(spec, SystemConfig(), SimScale(16),
                                    seed=seed)
            for core in (0, 3):
                assert list(islice(syn.trace_chunks(core), 12)) == \
                    list(islice(reference_trace_chunks(syn, core), 12)), \
                    (seed, core)


    @pytest.mark.parametrize("sizes", [dict(ws_rows=0), dict(hot_rows=0)])
    def test_an_empty_draw_range_raises(self, sizes):
        # randrange(0) raises; the inline rejection loop would spin.
        syn = SyntheticWorkload(workload_by_name("cc"), seed=1, **sizes)
        with pytest.raises(ValueError, match="empty range"):
            next(syn.trace_chunks(0))


class TestSpatialLocality:
    def test_rows_form_contiguous_working_set(self, cc):
        per_bank = {}
        for entry in take(cc.trace(0), 5000):
            per_bank.setdefault((entry.subchannel, entry.bank),
                                []).append(entry.row)
        for rows in per_bank.values():
            if len(rows) < 20:
                continue
            assert max(rows) - min(rows) <= cc.ws_rows

    def test_hot_rows_concentrate_traffic(self, cc):
        counts = {}
        for entry in take(cc.trace(0), 20_000):
            key = (entry.subchannel, entry.bank, entry.row)
            counts[key] = counts.get(key, 0) + 1
        top = sorted(counts.values(), reverse=True)
        hot_share = sum(top[:len(top) // 10]) / sum(top)
        # Under a uniform generator the top decile would hold ~10% of
        # the traffic; the hot-row overlay must concentrate well beyond.
        assert hot_share > 0.18


class TestPlacementMemo:
    """Bank placements are drawn once per process and shared."""

    def test_placements_pinned(self):
        # Values drawn by the per-instance placement RNGs this memo
        # replaced; any change here moves every synthetic trace.
        tc = workload_by_name("tc")
        seed0 = SyntheticWorkload(tc, seed=0).placements
        base, hot = seed0[0 * 32 + 0]  # subchannel 0, bank 0
        assert (base, hot[:5]) == (69680, (4073, 3660, 3139, 2496, 3789))
        seed7 = SyntheticWorkload(tc, seed=7).placements
        base, hot = seed7[1 * 32 + 31]  # subchannel 1, bank 31
        assert (base, hot[:5]) == (84068, (2446, 2425, 2265, 3661, 1440))

    def test_same_seed_shares_one_table(self):
        a = SyntheticWorkload(workload_by_name("tc"), seed=3)
        b = SyntheticWorkload(workload_by_name("cc"), SystemConfig(),
                              SimScale(64), seed=3)
        c = SyntheticWorkload(workload_by_name("tc"), seed=4)
        assert a.placements is b.placements
        assert c.placements != a.placements

    def test_memo_is_bounded_and_holds_tuples(self):
        table = SyntheticWorkload(workload_by_name("tc"), seed=5).placements
        assert _bank_placements.cache_info().maxsize == 4
        geometry = SystemConfig().geometry
        assert len(table) == (geometry.subchannels
                              * geometry.banks_per_subchannel)
        assert isinstance(table, tuple)
        assert all(isinstance(hot, tuple) and len(hot) == 184
                   for _, hot in table)
