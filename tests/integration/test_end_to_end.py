"""Integration tests: end-to-end workflows across modules."""

import pytest

from repro import (
    GraphOrder,
    HBAnalysis,
    MAZAnalysis,
    SHBAnalysis,
    TreeClock,
    VectorClock,
    detect_races,
    load_trace,
    save_trace,
)
from repro.analysis.ablations import HBDeepCopyAnalysis, SHBDeepCopyAnalysis
from repro.gen import RandomTraceConfig, default_suite, generate_trace, star_topology_trace
from repro.metrics import is_vt_optimal, measure_work
from repro.trace import compute_statistics, is_well_formed
from util_traces import make_random_trace


class TestGenerateAnalyzePipeline:
    """Generate a workload, persist it, reload it, analyze it."""

    def test_roundtrip_then_analyze(self, tmp_path):
        trace = generate_trace(
            RandomTraceConfig(name="pipeline", num_threads=8, num_events=600, sync_fraction=0.3, seed=3)
        )
        path = tmp_path / "pipeline.std"
        save_trace(trace, path)
        reloaded = load_trace(path, name="pipeline")
        assert reloaded == trace
        tc = HBAnalysis(TreeClock, capture_timestamps=True).run(reloaded)
        vc = HBAnalysis(VectorClock, capture_timestamps=True).run(reloaded)
        assert tc.timestamps == vc.timestamps

    def test_suite_traces_are_analyzable_by_all_orders(self):
        profiles = default_suite(scale=0.1, max_profiles=4)
        for profile in profiles:
            trace = profile.generate()
            assert is_well_formed(trace)
            for analysis_class in (HBAnalysis, SHBAnalysis, MAZAnalysis):
                result = analysis_class(TreeClock, detect=True).run(trace)
                assert result.num_events == len(trace)

    def test_statistics_and_work_for_star_topology(self):
        trace = star_topology_trace(24, 2000)
        stats = compute_statistics(trace)
        assert stats.sync_fraction == 1.0
        measurement = measure_work(trace, HBAnalysis)
        assert is_vt_optimal(measurement)
        # The star topology is where tree clocks shine: large work advantage.
        assert measurement.vc_over_tc > 3.0


class TestRaceDetectionEndToEnd:
    def test_detector_agrees_with_oracle_on_seeded_traces(self):
        for seed in range(8):
            trace = make_random_trace(seed, num_threads=5, num_events=120)
            detected = detect_races(trace, "HB").detection.race_count > 0
            oracle = bool(GraphOrder(trace, "HB").racy_pairs())
            assert detected == oracle, f"seed {seed}"

    def test_shb_reports_no_more_races_than_hb(self):
        # SHB orders strictly more events than HB, so any SHB-concurrent
        # conflicting pair is also HB-concurrent.
        for seed in range(6):
            trace = make_random_trace(seed, num_threads=5, num_events=150, sync_bias=0.3)
            hb_races = bool(GraphOrder(trace, "HB").racy_pairs())
            shb_races = bool(GraphOrder(trace, "SHB").racy_pairs())
            assert not (shb_races and not hb_races)

    def test_detection_is_deterministic(self):
        trace = make_random_trace(11, num_threads=6, num_events=200)
        first = detect_races(trace, "HB").detection.race_count
        second = detect_races(trace, "HB").detection.race_count
        assert first == second


class TestAblations:
    def test_deep_copy_variants_compute_identical_timestamps(self):
        trace = make_random_trace(5, num_threads=6, num_events=200)
        baseline = HBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps
        shb_baseline = SHBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        shb_ablated = SHBDeepCopyAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert shb_baseline.timestamps == shb_ablated.timestamps

    def test_deep_copy_ablation_touches_more_entries(self):
        trace = star_topology_trace(20, 2000)
        baseline = HBAnalysis(TreeClock, count_work=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, count_work=True).run(trace)
        assert ablated.work.entries_processed > baseline.work.entries_processed

