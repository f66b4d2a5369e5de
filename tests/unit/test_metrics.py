"""Unit tests for the work metrics (:mod:`repro.metrics`)."""

import pytest

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.analysis.ablations import HBDeepCopyAnalysis
from repro.metrics import WorkMeasurement, is_vt_optimal, measure_work
from util_traces import make_random_trace


@pytest.fixture(scope="module")
def medium_trace():
    return make_random_trace(seed=7, num_threads=10, num_locks=4, num_events=400)


class TestMeasureWork:
    def test_vt_work_is_bounded_by_events_and_nk(self, medium_trace):
        measurement = measure_work(medium_trace, HBAnalysis)
        assert measurement.num_events <= measurement.vt_work
        assert measurement.vt_work <= measurement.num_events * measurement.num_threads * 2

    def test_vc_work_is_at_least_tc_work_on_multithreaded_traces(self, medium_trace):
        measurement = measure_work(medium_trace, HBAnalysis)
        assert measurement.vc_work >= measurement.tc_work

    def test_tc_work_respects_theorem_bound(self, medium_trace):
        for analysis in (HBAnalysis, SHBAnalysis, MAZAnalysis):
            measurement = measure_work(medium_trace, analysis)
            assert is_vt_optimal(measurement), measurement.as_row()

    def test_ratios(self):
        measurement = WorkMeasurement(
            trace_name="t", partial_order="HB", num_events=10, num_threads=4,
            vt_work=100, vc_work=400, tc_work=200,
        )
        assert measurement.vc_over_vt == 4.0
        assert measurement.tc_over_vt == 2.0
        assert measurement.vc_over_tc == 2.0

    def test_ratios_with_zero_denominators(self):
        measurement = WorkMeasurement(
            trace_name="t", partial_order="HB", num_events=0, num_threads=0,
            vt_work=0, vc_work=0, tc_work=0,
        )
        assert measurement.vc_over_vt == 0.0
        assert measurement.tc_over_vt == 0.0
        assert measurement.vc_over_tc == 0.0

    def test_as_row_keys(self, medium_trace):
        row = measure_work(medium_trace, HBAnalysis).as_row()
        assert {"trace", "order", "VTWork", "VCWork", "TCWork"} <= set(row)

    def test_work_measurement_with_detection(self, medium_trace):
        measurement = measure_work(medium_trace, HBAnalysis, detect=True)
        assert measurement.vt_work > 0

    def test_ablation_class_changes_tc_work_only(self, medium_trace):
        # The deep-copy ablation computes HB's vector times, so VTWork
        # matches; its unconditional copies cannot process fewer entries.
        hb = measure_work(medium_trace, HBAnalysis)
        ablated = measure_work(medium_trace, HBDeepCopyAnalysis)
        assert ablated.partial_order == "HB"
        assert ablated.vt_work == hb.vt_work
        assert ablated.tc_work >= hb.tc_work

