"""Unit tests for the experiment runners (small, fast configurations)."""

from operator import attrgetter

import pytest

import repro.bench.runner as bench_runner
from repro.bench.runner import BenchCaseResult
from repro.bench.suites import paper_suite, table2_case_name
from repro.experiments import ExperimentConfig, SuiteRunner
from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
    table3,
)
from repro.experiments.figure7 import spearman_correlation
from repro.experiments.figure10 import ScalabilityConfig
from repro.experiments.runner import DEFAULT_ORDERS, SpeedupSample, average_speedup


# A deliberately tiny configuration so each experiment runs in well under a second.
FAST = ExperimentConfig(scale=0.15, repetitions=1, max_profiles=5)


@pytest.fixture(scope="module")
def shared_runner() -> SuiteRunner:
    return SuiteRunner(FAST)



class TestExperimentConfig:
    def test_default_orders(self):
        assert tuple(DEFAULT_ORDERS) == ("MAZ", "SHB", "HB")

    def test_analysis_classes_resolution(self):
        classes = FAST.analysis_classes()
        assert [cls.PARTIAL_ORDER for cls in classes] == ["MAZ", "SHB", "HB"]

    def test_analysis_classes_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            ExperimentConfig(orders=("HB", "XYZ")).analysis_classes()


class TestSpeedupSample:
    def test_speedup_sample_row(self):
        sample = SpeedupSample(
            trace_name="t", partial_order="HB", with_analysis=False,
            num_events=10, num_threads=2, vc_seconds=2.0, tc_seconds=1.0,
        )
        row = sample.as_row()
        assert row["speedup"] == 2.0
        assert row["VC (s)"] == 2.0

    def test_speedup_with_zero_tc_time_is_infinite(self):
        sample = SpeedupSample(
            trace_name="t", partial_order="HB", with_analysis=False,
            num_events=10, num_threads=2, vc_seconds=1.0, tc_seconds=0.0,
        )
        assert sample.speedup == float("inf")

    def test_average_speedup(self):
        samples = [
            SpeedupSample("a", "HB", False, 1, 1, vc_seconds=2.0, tc_seconds=1.0),
            SpeedupSample("b", "HB", False, 1, 1, vc_seconds=4.0, tc_seconds=1.0),
        ]
        assert average_speedup(samples) == pytest.approx(3.0)

    def test_average_speedup_of_empty_list(self):
        assert average_speedup([]) == 0.0


class TestSuiteRunner:
    def test_profiles_respect_max(self, shared_runner):
        assert len(shared_runner.profiles) == 5

    def test_traces_are_cached(self, shared_runner):
        first = shared_runner.traces()
        second = shared_runner.traces()
        assert all(a is b for a, b in zip(first, second))

    def test_statistics_align_with_profiles(self, shared_runner):
        stats = shared_runner.statistics()
        assert [s.name for s in stats] == [p.name for p in shared_runner.profiles]

    def test_each_case_is_measured_once(self, measured_cases):
        runner = SuiteRunner(ExperimentConfig(scale=0.05, repetitions=1, max_profiles=1))
        profile = runner.profiles[0]
        first = runner.speedup(profile, "HB", False)
        assert runner.speedup(profile, "HB", False) == first
        runner.speedup(profile, "HB", True)  # same case, the +detect specs
        assert [case.name for case in measured_cases] == [table2_case_name(profile.name, "HB")]

    def test_measures_the_paper_suite_table2_cases(self, measured_cases):
        config = ExperimentConfig(scale=0.05, repetitions=1, max_profiles=2)
        table2.run(config, SuiteRunner(config))
        expected = [
            case
            for case in paper_suite(scale=0.05, max_profiles=2)
            if case.name.startswith("paper/table2/")
        ]
        by_name = attrgetter("name")
        assert sorted(measured_cases, key=by_name) == sorted(expected, key=by_name)

    def test_work_measurements_cover_orders(self, shared_runner):
        measurements = shared_runner.work_measurements(orders=["HB"])
        assert len(measurements) == len(shared_runner.profiles)
        assert all(m.partial_order == "HB" for m in measurements)


class TestTableRunners:
    def test_table1_rows(self, shared_runner):
        report = table1.run(FAST, shared_runner)
        assert report.experiment == "table1"
        labels = [row[0] for row in report.rows]
        assert "Threads" in labels and "Events" in labels
        assert report.summary["traces"] == 5

    def test_table2_shape(self, shared_runner):
        report = table2.run(FAST, shared_runner)
        assert report.headers[0] == "Configuration"
        assert len(report.rows) == 2
        assert len(report.rows[0]) == 1 + len(FAST.orders)

    def test_table2_includes_paper_reference_values(self, shared_runner):
        report = table2.run(FAST, shared_runner)
        assert any("paper" in key for key in report.summary)

    def test_table3_lists_every_profile(self, shared_runner):
        report = table3.run(FAST, shared_runner)
        assert len(report.rows) == 5
        assert report.headers[:2] == ["Benchmark", "Family"]


class TestFigureRunners:
    def test_figure6_point_count(self, shared_runner):
        report = figure6.run(FAST, shared_runner)
        # 5 traces x 3 orders x 2 panels
        assert len(report.rows) == 30
        assert report.summary["points"] == 30

    def test_figure7_rows_sorted_by_sync_fraction(self, shared_runner):
        report = figure7.run(FAST, shared_runner)
        sync_column = [row[2] for row in report.rows]
        assert sync_column == sorted(sync_column)

    def test_figure8_respects_theorem_bound(self, shared_runner):
        report = figure8.run(FAST, shared_runner)
        assert report.summary["max TCWork/VTWork"] <= 3.0
        assert len(report.rows) == 5

    def test_figure9_has_rows_per_order(self, shared_runner):
        report = figure9.run(FAST, shared_runner)
        orders_in_rows = {row[0] for row in report.rows}
        assert orders_in_rows == {"MAZ", "SHB", "HB"}

    def test_figure10_sweep(self):
        scalability = ScalabilityConfig(thread_counts=(4, 8), num_events=400)
        report = figure10.run(FAST, scalability)
        assert len(report.rows) == 2 * len(scalability.scenarios)
        assert report.headers[0] == "Scenario"


def synthetic_series(ms):
    """Three timed walks whose median is ``ms`` (but whose min and mean are not)."""
    return [int(ms * 1e6) - 100_000, int(ms * 1e6), int(ms * 1e6) + 500_000]


class TestTablesFromKnownTimes:
    CONFIG = ExperimentConfig(scale=0.05, repetitions=3, max_profiles=2, orders=("HB",))
    #: Per profile: HB VC / TC / VC+detect / TC+detect medians in ms.
    TIMES_MS = ((2, 1, 6, 2), (3, 1, 4, 1))

    @pytest.fixture
    def runner(self, monkeypatch):
        def no_timing(case, config=None):
            raise AssertionError(f"{case.name} was timed instead of read from the cache")

        monkeypatch.setattr(bench_runner, "run_case", no_timing)
        runner = SuiteRunner(self.CONFIG)
        for profile, times in zip(runner.profiles, self.TIMES_MS):
            name = table2_case_name(profile.name, "HB")
            specs = ("hb+vc", "hb+tc", "hb+vc+detect", "hb+tc+detect")
            runner.results[name] = BenchCaseResult(
                name=name,
                kind="session",
                params=runner.cases[name].params,
                events=50,
                runs_ns=synthetic_series(sum(times)),
                sub={spec: synthetic_series(ms) for spec, ms in zip(specs, times)},
            )
        return runner

    def test_table2_cells(self, runner):
        report = table2.run(self.CONFIG, runner)
        assert report.rows == [["PO", 2.5], ["PO + Analysis", 3.5]]

    def test_figure6_columns(self, runner):
        report = figure6.run(self.CONFIG, runner)
        assert [row[5] for row in report.rows] == [0.002, 0.003, 0.006, 0.004]
        assert [row[6] for row in report.rows] == [0.001, 0.001, 0.002, 0.001]
        assert [row[7] for row in report.rows] == [2.0, 3.0, 3.0, 4.0]


class TestSpearman:
    def test_perfect_positive_correlation(self):
        assert spearman_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative_correlation(self):
        assert spearman_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_degenerate_inputs(self):
        assert spearman_correlation([1], [1]) == 0.0
        assert spearman_correlation([1, 2], [1]) == 0.0
