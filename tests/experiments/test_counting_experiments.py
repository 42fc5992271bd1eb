"""Tests for the activation-counting experiment helpers (medium)."""

from typing import Dict, Tuple

import pytest

from repro.core.rct import RegionCountTable
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshScheduler
from repro.experiments.common import (
    CgfJob,
    CgfStats,
    RctFilter,
    StreamCounts,
    SubarrayStatsJob,
    acts_per_subarray_for,
    measure_cgf,
    selected_workloads,
)
from repro.params import SimScale, SystemConfig
from repro.sim.session import SimSession, job_label, job_token
from repro.workloads.specs import workload_by_name
from repro.workloads.synthetic import SyntheticWorkload

FAST = SimScale(256)


# ----------------------------------------------------------------------
# Per-ACT reference: the entry-at-a-time loops the single pass replaced
# ----------------------------------------------------------------------
def reference_cgf(spec, mapping_kind, fth, num_regions=128,
                  scale=FAST, config=SystemConfig(), seed=0) -> CgfStats:
    """One ``TraceEntry``, one ``on_activate`` and one scheduler step at
    a time, with a lazily built RCT and ``RefreshScheduler`` per bank."""
    geometry = config.geometry
    mapping = (StridedR2SA(geometry) if mapping_kind == "strided"
               else SequentialR2SA(geometry))
    synthetic = SyntheticWorkload(spec, config, scale, seed=seed)
    acts_per_bank = scale.scale_count(spec.acts_per_bank_per_window)
    total_acts = int(acts_per_bank * geometry.total_banks)
    refs_per_window = scale.scaled_refs_per_window(config.timings)
    rcts: Dict[Tuple[int, int], RegionCountTable] = {}
    schedulers: Dict[Tuple[int, int], RefreshScheduler] = {}
    acts_seen: Dict[Tuple[int, int], int] = {}
    acts_per_ref = max(1, int(acts_per_bank / refs_per_window))
    filtered = escaped = emitted = 0
    traces = [synthetic.trace(core) for core in range(config.num_cores)]
    core = 0
    while emitted < total_acts:
        entry = next(traces[core])
        core = (core + 1) % len(traces)
        key = (entry.subchannel, entry.bank)
        if key not in rcts:
            rcts[key] = RegionCountTable(num_regions, fth, geometry)
            schedulers[key] = RefreshScheduler(
                geometry, mapping, refs_per_window)
            acts_seen[key] = 0
        if rcts[key].on_activate(mapping.physical_index(entry.row)):
            escaped += 1
        else:
            filtered += 1
        emitted += 1
        acts_seen[key] += 1
        if acts_seen[key] % acts_per_ref == 0:
            rcts[key].on_ref_slice(schedulers[key].advance())
    return CgfStats(total_acts=emitted, filtered=filtered,
                    escaped=escaped)


def reference_subarrays(spec, scale=FAST, config=SystemConfig(),
                        seed=0) -> Tuple[float, float]:
    """Per-entry (mean, std) ACTs per subarray under strided mapping."""
    geometry = config.geometry
    mapping = StridedR2SA(geometry)
    synthetic = SyntheticWorkload(spec, config, scale, seed=seed)
    acts_per_bank = scale.scale_count(spec.acts_per_bank_per_window)
    total_acts = int(acts_per_bank * geometry.total_banks)
    counts: Dict[Tuple[int, int, int], int] = {}
    traces = [synthetic.trace(core) for core in range(config.num_cores)]
    emitted, core = 0, 0
    while emitted < total_acts:
        entry = next(traces[core])
        core = (core + 1) % len(traces)
        key = (entry.subchannel, entry.bank, mapping.subarray_of(entry.row))
        counts[key] = counts.get(key, 0) + 1
        emitted += 1
    values = [counts.get((subch, bank, sa), 0)
              for subch in range(geometry.subchannels)
              for bank in range(geometry.banks_per_subchannel)
              for sa in range(geometry.subarrays_per_bank)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var ** 0.5


REFERENCE_FILTERS = (
    RctFilter("sequential", 5),
    RctFilter("strided", 5),
    RctFilter("strided", 0),
    RctFilter("strided", 10_000),
    # 16 regions of 8192 rows: each region's SAFE sweep spans two REF
    # slices at FAST, so one is still in flight when a run lands.
    RctFilter("strided", 3, 16),
    # 256 regions of 512 rows, smaller than a subarray: edge bumps.
    RctFilter("sequential", 3, 256),
)


class TestSinglePassMatchesReference:
    @pytest.fixture(scope="class")
    def counted(self):
        job = CgfJob(workload_by_name("tc"), REFERENCE_FILTERS,
                     subarrays=True, scale=FAST)
        return job, job.execute()

    def test_cases_exercise_the_slow_paths(self):
        geometry = SystemConfig().geometry
        sweep = RefreshScheduler(
            geometry,
            refs_per_window=FAST.scaled_refs_per_window(
                SystemConfig().timings))
        assert geometry.rows_per_bank // 16 > sweep.rows_per_ref
        assert geometry.rows_per_bank // 256 < geometry.rows_per_subarray

    @pytest.mark.parametrize("flt", REFERENCE_FILTERS, ids=repr)
    def test_filter_stats_equal_reference(self, counted, flt):
        job, counts = counted
        assert counts.cgf[job.filters.index(flt)] == reference_cgf(
            job.spec, flt.mapping_kind, flt.fth, flt.num_regions)

    def test_subarray_stats_equal_reference(self, counted):
        job, counts = counted
        assert counts.subarrays == reference_subarrays(job.spec)

    def test_one_line_views_equal_reference(self):
        spec = workload_by_name("mcf")
        assert measure_cgf(spec, "strided", 2, 64, FAST, seed=3) == \
            reference_cgf(spec, "strided", 2, 64, seed=3)
        assert acts_per_subarray_for(spec, FAST, seed=3) == \
            reference_subarrays(spec, seed=3)
        assert SubarrayStatsJob(spec, FAST, seed=3).execute() == \
            reference_subarrays(spec, seed=3)


REPORT_TC_FILTERS = tuple(
    [RctFilter("sequential", fth) for fth in (87, 93, 100, 106)]
    + [RctFilter("strided", 41, 256)]
    + [RctFilter("strided", fth) for fth in (87, 93, 100, 106)]
    + [RctFilter("strided", 208, 64)])
"""The filters the default report merges into tc's counting pass."""


def test_report_tc_pass_is_pinned_at_the_default_counting_scale():
    # At counting scale 16 a REF slice (256 rows) is smaller than every
    # region here, so a SAFE sweep is in flight for most ACTs of every
    # filter, and the 256-region filter bumps edge neighbours.
    job = CgfJob(workload_by_name("tc"), REPORT_TC_FILTERS,
                 subarrays=True, scale=SimScale(16))
    sequential = [(51892, 233804), (55206, 230490), (59045, 226651),
                  (62294, 223402)]
    expected = StreamCounts(
        tuple(CgfStats(285696, filtered, escaped) for filtered, escaped
              in sequential + [(282454, 3242)] + [(285696, 0)] * 5),
        (34.875, 11.18549213825659))
    assert job.execute() == expected


class TestCgfJob:
    def test_merge_is_order_independent(self):
        spec = workload_by_name("tc")
        jobs = [CgfJob.single(spec, "strided", 3, scale=FAST),
                SubarrayStatsJob(spec, FAST),
                CgfJob.single(spec, "sequential", 9, scale=FAST),
                CgfJob.single(spec, "strided", 3, scale=FAST)]
        merged = CgfJob.merge(jobs)
        assert merged == CgfJob.merge(jobs[::-1])
        assert job_token(merged) == job_token(CgfJob.merge(jobs[::-1]))
        assert merged.filters == (RctFilter("sequential", 9),
                                  RctFilter("strided", 3))
        assert merged.subarrays

    def test_merge_refuses_different_streams(self):
        with pytest.raises(ValueError, match="same row stream"):
            CgfJob.merge([
                CgfJob.single(workload_by_name("tc"), "strided", 3),
                SubarrayStatsJob(workload_by_name("tc"), seed=1)])

    def test_results_read_off_a_merged_job(self):
        spec = workload_by_name("tc")
        single = CgfJob.single(spec, "strided", 3, scale=FAST)
        histogram = SubarrayStatsJob(spec, FAST)
        merged = CgfJob.merge([single, histogram,
                               CgfJob.single(spec, "sequential", 3,
                                             scale=FAST)])
        counts = merged.execute()
        assert single.result_from(merged, counts) == single.execute()
        assert histogram.result_from(merged, counts) == \
            histogram.execute()

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="unknown row-to-subarray"):
            RctFilter("diagonal", 3)

    def test_labels_name_the_stream(self):
        spec = workload_by_name("mcf")
        merged = CgfJob(spec, (RctFilter("sequential", 2),
                               RctFilter("strided", 2)),
                        subarrays=True, scale=SimScale(2048))
        assert job_label(merged) == \
            "cgf:mcf/x2048/seed0 (2 filters + subarrays)"
        assert job_label(CgfJob.single(spec, "strided", 93,
                                       scale=SimScale(16))) == \
            "cgf:mcf/x16/seed0 (strided fth93 r128)"
        assert job_label(SubarrayStatsJob(spec, SimScale(16))) == \
            "subarrays:mcf/x16/seed0"

    def test_disk_cache_round_trip(self, tmp_path):
        spec = workload_by_name("tc")
        job = CgfJob(spec, (RctFilter("strided", 2),), subarrays=True,
                     scale=SimScale(2048))
        computed = SimSession(cache_dir=str(tmp_path)).run(job)
        fresh = SimSession(cache_dir=str(tmp_path))
        cached = fresh.run(job)
        assert fresh.stats["disk_hits"] == 1
        assert isinstance(cached, StreamCounts)
        assert cached == computed


class TestSelectedWorkloads:
    def test_default_subset(self):
        specs = selected_workloads()
        assert len(specs) >= 3
        assert all(hasattr(s, "l3_mpki") for s in specs)

    def test_explicit_names(self):
        specs = selected_workloads(["cc", "tc"])
        assert [s.name for s in specs] == ["cc", "tc"]


class TestCgfStats:
    def test_percentages(self):
        stats = CgfStats(total_acts=200, filtered=150, escaped=50)
        assert stats.filtered_pct == 75.0
        assert stats.remaining_pct == 25.0

    def test_empty(self):
        stats = CgfStats(total_acts=0, filtered=0, escaped=0)
        assert stats.filtered_pct == 0.0


class TestMeasureCgf:
    def test_counts_are_consistent(self):
        spec = workload_by_name("tc")
        stats = measure_cgf(spec, "strided", fth=5, scale=FAST)
        assert stats.filtered + stats.escaped == stats.total_acts
        assert stats.total_acts > 0

    def test_strided_filters_more_than_sequential(self):
        spec = workload_by_name("cc")
        fth = SimScale(256).scale_threshold(1500)
        strided = measure_cgf(spec, "strided", fth, scale=FAST)
        sequential = measure_cgf(spec, "sequential", fth, scale=FAST)
        assert strided.filtered_pct > sequential.filtered_pct

    def test_higher_fth_filters_more(self):
        spec = workload_by_name("cc")
        low = measure_cgf(spec, "strided", 3, scale=FAST)
        high = measure_cgf(spec, "strided", 30, scale=FAST)
        assert high.filtered_pct >= low.filtered_pct

    def test_zero_fth_escapes_most_acts(self):
        # With FTH=0 only the first ACT of a region (per reset window)
        # is filtered; at deep scaling regions see just a few ACTs
        # each, so "most" rather than "almost all" escape.
        spec = workload_by_name("cc")
        stats = measure_cgf(spec, "strided", 0, scale=FAST)
        assert stats.remaining_pct > 50.0


class TestActsPerSubarray:
    def test_mean_matches_spec_by_construction(self):
        spec = workload_by_name("cc")
        mean, std = acts_per_subarray_for(spec, FAST)
        assert mean * 256 == pytest.approx(
            spec.acts_per_subarray_mean, rel=0.05)
        assert std >= 0.0

    def test_light_workload_lower_than_heavy(self):
        light, _ = acts_per_subarray_for(workload_by_name("blender"),
                                         FAST)
        heavy, _ = acts_per_subarray_for(workload_by_name("fotonik3d"),
                                         FAST)
        assert heavy > light
