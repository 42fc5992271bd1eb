"""Tests for the declarative attack-pattern DSL."""

import pytest

from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.sim.session import describe, job_token
from repro.workloads.patterns import (
    CompileContext,
    DecoyEvasion,
    DoubleSided,
    Feint,
    HalfDouble,
    NSided,
    RefreshSyncBurst,
    RowCycle,
    Sequence,
    paper_attack_set,
)
from tests.workloads.reference_patterns import (
    reference_decoy_rows,
    reference_sync_burst_rows,
)


@pytest.fixture
def ctx():
    return CompileContext.make(mapping=SequentialR2SA())


class TestCompileContext:
    def test_defaults_derive_from_config(self, ctx):
        from repro.security.analysis import acts_per_ref_interval
        assert ctx.acts_per_trefi == acts_per_ref_interval()
        assert isinstance(ctx.mapping, SequentialR2SA)

    def test_explicit_budget_wins(self):
        ctx = CompileContext.make(acts_per_trefi=50)
        assert ctx.acts_per_trefi == 50


class TestDoubleSided:
    def test_alternates_neighbors(self, ctx):
        rows = list(DoubleSided(victim_row=100, acts=6).rows(ctx))
        assert rows == [99, 101, 99, 101, 99, 101]

    def test_edge_victim_degrades_to_single_sided(self, ctx):
        rows = list(DoubleSided(victim_row=0, acts=4).rows(ctx))
        assert rows == [1, 1, 1, 1]

    def test_edge_victim_strict_raises(self, ctx):
        pattern = DoubleSided(victim_row=0, acts=4,
                              allow_single_sided=False)
        with pytest.raises(ValueError):
            list(pattern.rows(ctx))

    def test_respects_mapping(self):
        ctx = CompileContext.make(mapping=StridedR2SA())
        victim = 5 * 128 + 3
        rows = set(DoubleSided(victim_row=victim, acts=4).rows(ctx))
        assert rows == {victim - 128, victim + 128}


class TestNSided:
    def test_covers_n_nearest_neighbors(self, ctx):
        rows = set(NSided(victim_row=100, sides=4, acts=40).rows(ctx))
        assert rows == {98, 99, 101, 102}

    def test_rejects_zero_sides(self, ctx):
        with pytest.raises(ValueError):
            list(NSided(victim_row=100, sides=0, acts=4).rows(ctx))


class TestHalfDouble:
    def test_far_to_near_ratio(self, ctx):
        pattern = HalfDouble(victim_row=100, acts=18,
                             far_acts_per_near=8)
        rows = list(pattern.rows(ctx))
        assert len(rows) == 18
        near = sum(1 for r in rows if r in (99, 101))
        far = sum(1 for r in rows if r in (98, 102))
        assert near == 2 and far == 16

    def test_edge_victim_survives(self, ctx):
        rows = list(HalfDouble(victim_row=0, acts=9).rows(ctx))
        assert len(rows) == 9


class TestFeint:
    def test_rotation_exceeds_tracker(self, ctx):
        rows = list(Feint(tracker_entries=8, acts=100,
                          decoys=1).rows(ctx))
        assert len(set(rows)) == 9
        counts = {r: rows.count(r) for r in set(rows)}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_explicit_decoys(self, ctx):
        rows = set(Feint(tracker_entries=4, acts=100,
                         decoys=3).rows(ctx))
        assert rows == set(range(7))

    def test_zero_decoys_rejected(self, ctx):
        with pytest.raises(ValueError):
            list(Feint(tracker_entries=8, acts=10, decoys=0).rows(ctx))


class TestDecoyEvasion:
    def test_target_interleaved_with_decoys(self, ctx):
        rows = list(DecoyEvasion(table_entries=4, target_row=50,
                                 acts=100, seed=7).rows(ctx))
        assert rows.count(50) >= 5
        assert len(set(rows)) > 8

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            DecoyEvasion(table_entries=4, target_row=50, acts=100)

    def test_seeded_determinism(self, ctx):
        spec = dict(table_entries=8, target_row=50, acts=200, seed=3)
        one = list(DecoyEvasion(**spec).rows(ctx))
        two = list(DecoyEvasion(**spec).rows(ctx))
        other = list(DecoyEvasion(**dict(spec, seed=4)).rows(ctx))
        assert one == two
        assert one != other

    def test_exact_act_count(self, ctx):
        rows = list(DecoyEvasion(table_entries=8, target_row=50,
                                 acts=123, seed=0).rows(ctx))
        assert len(rows) == 123

    def test_burst_knob_sets_target_rate(self, ctx):
        dense = DecoyEvasion(table_entries=8, target_row=50, acts=300,
                             seed=0, burst=2)
        sparse = DecoyEvasion(table_entries=8, target_row=50, acts=300,
                              seed=0, burst=30)
        dense_hits = list(dense.rows(ctx)).count(50)
        sparse_hits = list(sparse.rows(ctx)).count(50)
        assert dense_hits > sparse_hits

    @pytest.mark.parametrize("span", [1, 2, 3, 80, 1000, 4096, 4097])
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_inline_draws_match_randrange(self, ctx, seed, span):
        pattern = DecoyEvasion(table_entries=8, target_row=50, acts=2000,
                               seed=seed, burst=(seed % 5) + 3,
                               decoy_span=span)
        rows = list(pattern.rows(ctx))
        assert rows == list(reference_decoy_rows(pattern))
        assert set(rows) <= {50} | set(range(1050, 1050 + span))

    @pytest.mark.parametrize("entries", [1, 8, 28])
    def test_default_span_matches_randrange(self, ctx, entries):
        # The default shape: a burst of entries + 4 decoys over a span
        # of 10 * entries rows.
        pattern = DecoyEvasion(table_entries=entries, target_row=900,
                               acts=3000, seed=entries)
        assert list(pattern.rows(ctx)) \
            == list(reference_decoy_rows(pattern))

    @pytest.mark.parametrize("span", [-3, -1])
    def test_empty_span_raises_like_randrange(self, ctx, span):
        pattern = DecoyEvasion(table_entries=8, target_row=50, acts=5,
                               seed=0, decoy_span=span)
        with pytest.raises(ValueError) as raised:
            list(pattern.rows(ctx))
        with pytest.raises(ValueError) as expected:
            list(reference_decoy_rows(pattern))
        assert str(raised.value) == str(expected.value)
        # The target row comes first; a pattern without decoys never
        # draws, so it never raises.
        assert next(pattern.rows(ctx)) == 50
        assert list(DecoyEvasion(table_entries=8, target_row=50, acts=1,
                                 seed=0, decoy_span=span).rows(ctx)) \
            == [50]


class TestRefreshSyncBurst:
    def test_bursts_align_with_trefi_budget(self):
        ctx = CompileContext.make(acts_per_trefi=10)
        pattern = RefreshSyncBurst(aggressors=(5, 7),
                                   reads_per_trefi=4, acts=30, seed=1)
        rows = list(pattern.rows(ctx))
        assert len(rows) == 30
        # Each 10-ACT interval opens with 4 aggressor hits, then 6
        # one-hit sync fillers.
        for start in (0, 10, 20):
            interval = rows[start:start + 10]
            assert interval[:4] == [5, 7, 5, 7]
            assert all(r > 1000 for r in interval[4:])

    def test_explicit_sync_acts(self):
        ctx = CompileContext.make(acts_per_trefi=10)
        pattern = RefreshSyncBurst(aggressors=(5,), reads_per_trefi=2,
                                   acts=12, seed=1, sync_acts=1)
        rows = list(pattern.rows(ctx))
        assert rows.count(5) == 8

    @pytest.mark.parametrize("seed", [0, 1, 99, 2024])
    def test_inline_draws_match_randrange(self, seed):
        ctx = CompileContext.make(acts_per_trefi=1 + seed % 37)
        pattern = RefreshSyncBurst(aggressors=(5, 7, 9),
                                   reads_per_trefi=1 + seed % 3,
                                   acts=3000, seed=seed)
        assert list(pattern.rows(ctx)) \
            == list(reference_sync_burst_rows(pattern, ctx))

    def test_rejects_empty_aggressors(self, ctx):
        with pytest.raises(ValueError):
            list(RefreshSyncBurst(aggressors=(), reads_per_trefi=1,
                                  acts=4, seed=0).rows(ctx))


class TestRowCycle:
    def test_cycles_the_row_list(self, ctx):
        rows = list(RowCycle(row_list=(3, 4, 5), acts=7).rows(ctx))
        assert rows == [3, 4, 5, 3, 4, 5, 3]

    def test_rejects_an_empty_row_list(self, ctx):
        with pytest.raises(ValueError):
            list(RowCycle(row_list=(), acts=4).rows(ctx))


class TestSequence:
    def test_concatenates_parts(self, ctx):
        pattern = Sequence(parts=(
            RowCycle(row_list=(1, 2), acts=4),
            RowCycle(row_list=(9,), acts=2)))
        assert list(pattern.rows(ctx)) == [1, 2, 1, 2, 9, 9]


class TestCompilationAgreement:
    def test_stream_and_trace_agree(self, ctx):
        pattern = DecoyEvasion(table_entries=8, target_row=50,
                               acts=100, seed=2)
        stream = list(pattern.rows(ctx))
        trace = list(pattern.trace(ctx))
        assert [e.row for e in trace] == stream
        assert all(e.bank == ctx.bank and e.subchannel == ctx.subchannel
                   and e.compute_ps == ctx.compute_ps for e in trace)

    def test_workload_serves_the_same_trace(self, ctx):
        pattern = RowCycle(row_list=(3, 4, 5), acts=9)
        workload = pattern.workload(ctx, cores=(0, 2), mlp=4)
        assert workload.mlp == 4
        rows = [e.row for e in workload.chunk_source(0)]
        assert rows == [3, 4, 5] * 3
        assert [e.row for e in workload.chunk_source(2)] == rows
        assert list(workload.chunk_source(1)) == []

    def test_chunk_source_matches_entries(self, ctx):
        pattern = Feint(tracker_entries=4, acts=20, decoys=1)
        rows = [e.row for e in pattern.trace(ctx)]
        source = pattern.chunk_source(ctx, chunk_size=8)
        seen = []
        while True:
            chunk = source.next_chunk()
            if chunk is None:
                break
            assert len(chunk) <= 8
            seen.extend(row for *_, row in chunk)
        assert seen == rows


class TestJobMaterial:
    def test_patterns_are_hashable_job_material(self):
        pattern = RefreshSyncBurst(aggressors=(5, 7),
                                   reads_per_trefi=4, acts=30, seed=1)
        assert hash(pattern) == hash(RefreshSyncBurst(
            aggressors=(5, 7), reads_per_trefi=4, acts=30, seed=1))
        assert describe(pattern)["__class__"] == "RefreshSyncBurst"

    def test_seed_changes_the_token(self):
        one = DecoyEvasion(table_entries=8, target_row=50, acts=100,
                           seed=1)
        two = DecoyEvasion(table_entries=8, target_row=50, acts=100,
                           seed=2)
        assert job_token(one) != job_token(two)

    def test_labels_are_deterministic(self):
        pattern = DoubleSided(victim_row=7, acts=10)
        assert pattern.label() == DoubleSided(victim_row=7,
                                              acts=10).label()
        assert pattern.label().startswith("double-sided(")


class TestPaperSet:
    def test_covers_the_fixed_vocabulary(self, ctx):
        patterns = paper_attack_set(acts=50)
        assert set(patterns) == {"double-sided", "focused", "feinting",
                                 "trr-evasion"}
        for pattern in patterns.values():
            assert len(list(pattern.rows(ctx))) == 50

    @pytest.mark.parametrize("entries,rotation", [(4, 5), (8, 9),
                                                  (64, 72), (128, 144)])
    def test_feint_decoys_are_an_eighth_of_the_table(self, ctx, entries,
                                                     rotation):
        feint = paper_attack_set(1000, tracker_entries=entries)["feinting"]
        assert feint.decoys == max(1, entries // 8)
        assert set(feint.rows(ctx)) == set(range(rotation))
