"""Unit tests for the experiment runners (small, fast configurations)."""

from collections import Counter
from dataclasses import replace
from operator import attrgetter

import pytest

import repro.bench.runner as bench_runner
import repro.gen.suite as gen_suite
from repro.bench.runner import BenchCaseResult, BenchConfig, run_suite
from repro.bench.suites import paper_suite, table2_case_name, work_case_name
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
from repro.experiments.cli import EXPERIMENTS
from repro.experiments.figure7 import spearman_correlation
from repro.experiments.runner import DEFAULT_ORDERS, SpeedupSample, average_speedup
from repro.gen import SCENARIOS
from repro.metrics import is_vt_optimal


# A deliberately tiny configuration so each experiment runs in well under a second.
FAST = ExperimentConfig(scale=0.15, repetitions=1, max_profiles=5)


@pytest.fixture(scope="module")
def shared_runner() -> SuiteRunner:
    return SuiteRunner(FAST)



class TestExperimentConfig:
    def test_default_orders(self):
        assert tuple(DEFAULT_ORDERS) == ("MAZ", "SHB", "HB")

    def test_orders_accept_any_case(self):
        assert ExperimentConfig(orders=("maz", "Shb", "hb")).orders == ("maz", "Shb", "hb")

    def test_unknown_order_is_rejected(self):
        with pytest.raises(ValueError, match="unknown partial order 'XYZ'"):
            ExperimentConfig(orders=("HB", "XYZ"))


class TestSpeedupSample:
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
        # The timed cells, and the counted cells its decomposition rows read.
        expected = [
            case
            for case in paper_suite(scale=0.05, max_profiles=2, scenarios=())
            if case.name.startswith(("paper/table2/", "paper/work/"))
        ]
        by_name = attrgetter("name")
        assert sorted(measured_cases, key=by_name) == sorted(expected, key=by_name)

    def test_work_is_read_from_the_paper_work_cases(self, measured_cases):
        config = ExperimentConfig(scale=0.05, repetitions=1, max_profiles=2)
        runner = SuiteRunner(config)
        figure8.run(config, runner)
        figure9.run(config, runner)
        expected = [
            case
            for case in paper_suite(scale=0.05, max_profiles=2, scenarios=())
            if case.kind == "work"
        ]
        by_name = attrgetter("name")
        assert sorted(measured_cases, key=by_name) == sorted(expected, key=by_name)


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
        assert [row[0] for row in report.rows] == [
            "PO",
            "PO + Analysis",
            "Work ratio (VCWork / TCWork)",
            "Per-entry cost ratio (TC / VC)",
        ]
        assert all(len(row) == 1 + len(FAST.orders) for row in report.rows)

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
        config = replace(FAST, events=400, thread_counts=(4, 8))
        report = figure10.run(config, SuiteRunner(config))
        assert len(report.rows) == 2 * len(SCENARIOS)
        assert report.headers[0] == "Scenario"


def synthetic_series(ms):
    """Three timed walks whose median is ``ms`` (but whose min and mean are not)."""
    return [int(ms * 1e6) - 100_000, int(ms * 1e6), int(ms * 1e6) + 500_000]


def cache_table2_cells(runner, times_ms, counts):
    """Put known ``paper/table2`` times and ``paper/work`` counts in ``runner``'s cache.

    ``times_ms[order]`` holds per profile the VC / TC / VC+detect /
    TC+detect medians in ms, ``counts[order]`` per profile VTWork,
    VCWork and TCWork.
    """
    for order, per_profile in times_ms.items():
        for profile, times, (vt, vc, tc) in zip(runner.profiles, per_profile, counts[order]):
            name = table2_case_name(profile.name, order)
            prefix = order.lower()
            specs = (f"{prefix}+vc", f"{prefix}+tc", f"{prefix}+vc+detect", f"{prefix}+tc+detect")
            runner.results[name] = BenchCaseResult(
                name=name,
                kind="session",
                params=runner.cases[name].params,
                events=50,
                runs_ns=synthetic_series(sum(times)),
                sub={spec: synthetic_series(ms) for spec, ms in zip(specs, times)},
                meta={"threads": 4},
            )
            name = work_case_name(profile.name, order)
            runner.results[name] = BenchCaseResult(
                name=name,
                kind="work",
                params=runner.cases[name].params,
                events=50,
                runs_ns=[1],
                meta={"threads": 4, "vt_work": vt, "vc_work": vc, "tc_work": tc},
            )


class TestTablesFromKnownTimes:
    CONFIG = ExperimentConfig(scale=0.05, repetitions=3, max_profiles=2, orders=("HB",))
    #: Per profile: HB VC / TC / VC+detect / TC+detect medians in ms.
    TIMES_MS = ((2, 1, 6, 2), (3, 1, 4, 1))
    #: Per profile: HB VTWork, VCWork, TCWork.
    COUNTS = ((50, 400, 100), (100, 900, 300))

    @pytest.fixture
    def runner(self, monkeypatch):
        monkeypatch.setattr(bench_runner, "run_case", no_timing)
        runner = SuiteRunner(self.CONFIG)
        cache_table2_cells(runner, {"HB": self.TIMES_MS}, {"HB": self.COUNTS})
        return runner

    def test_table2_cells(self, runner):
        report = table2.run(self.CONFIG, runner)
        # Work ratios 4 and 3; per-entry cost ratios 4 / 2 and 3 / 3.
        assert report.rows == [
            ["PO", 2.5],
            ["PO + Analysis", 3.5],
            ["Work ratio (VCWork / TCWork)", 3.5],
            ["Per-entry cost ratio (TC / VC)", 1.5],
        ]

    def test_figure6_columns(self, runner):
        report = figure6.run(self.CONFIG, runner)
        assert [row[5] for row in report.rows] == [0.002, 0.003, 0.006, 0.004]
        assert [row[6] for row in report.rows] == [0.001, 0.001, 0.002, 0.001]
        assert [row[7] for row in report.rows] == [2.0, 3.0, 3.0, 4.0]


class TestTable2DecompositionFromKnownTimesAndCounts:
    """Table 2's work and per-entry cost rows, per order, from known times and counts."""

    CONFIG = ExperimentConfig(scale=0.05, repetitions=3, max_profiles=2, orders=("SHB", "HB"))
    #: Per order, per profile: VC / TC / VC+detect / TC+detect medians in ms.
    TIMES_MS = {
        "SHB": ((4, 8, 9, 10), (6, 2, 7, 3)),
        "HB": ((5, 1, 6, 2), (2, 2, 3, 3)),
    }
    #: Per order, per profile: VTWork, VCWork, TCWork.
    COUNTS = {
        "SHB": ((10, 600, 200), (10, 1000, 100)),
        "HB": ((10, 800, 100), (10, 300, 300)),
    }

    @pytest.fixture
    def report(self, monkeypatch):
        monkeypatch.setattr(bench_runner, "run_case", no_timing)
        runner = SuiteRunner(self.CONFIG)
        cache_table2_cells(runner, self.TIMES_MS, self.COUNTS)
        return table2.run(self.CONFIG, runner)

    def test_rows_are_means_over_traces(self, report):
        # SHB: speedups 0.5 and 3, work ratios 3 and 10, cost ratios 6 and 10/3.
        # HB: speedups 5 and 1, work ratios 8 and 1, cost ratios 1.6 and 1.
        assert report.headers == ["Configuration", "SHB", "HB"]
        assert report.rows == [
            ["PO", 1.75, 3.0],
            ["PO + Analysis", 1.62, 2.0],
            ["Work ratio (VCWork / TCWork)", 6.5, 4.5],
            ["Per-entry cost ratio (TC / VC)", 4.67, 1.3],
        ]

    def test_notes_define_the_rows(self, report):
        assert any("work ratio / PO speedup" in note for note in report.notes)


def no_timing(case, config=None, traces=None):
    raise AssertionError(f"{case.name} was measured instead of read from the cache")


def no_generation(config):
    raise AssertionError(f"{config.name} was generated instead of read from a case")


class TestStatisticsFromKnownCases:
    """Tables 1 and 3 and Figure 7's sync% read the statistics of the HB work cases."""

    CONFIG = ExperimentConfig(scale=0.05, repetitions=3, max_profiles=2, orders=("HB",))
    #: Per profile: events, threads, variables, locks, sync events, reads, writes.
    STATS = ((100, 4, 10, 2, 30, 50, 20), (200, 8, 30, 5, 20, 100, 80))

    @pytest.fixture
    def runner(self, monkeypatch):
        monkeypatch.setattr(bench_runner, "run_case", no_timing)
        monkeypatch.setattr(gen_suite, "generate_trace", no_generation)
        runner = SuiteRunner(self.CONFIG)
        cache_table2_cells(
            runner,
            {"HB": TestTablesFromKnownTimes.TIMES_MS},
            {"HB": TestTablesFromKnownTimes.COUNTS},
        )
        for profile, (events, threads, variables, locks, sync, reads, writes) in zip(
            runner.profiles, self.STATS
        ):
            runner.results[work_case_name(profile.name, "HB")].meta["stats"] = {
                "name": profile.name,
                "num_events": events,
                "num_threads": threads,
                "num_variables": variables,
                "num_locks": locks,
                "num_sync_events": sync,
                "num_access_events": reads + writes,
                "num_read_events": reads,
                "num_write_events": writes,
            }
        return runner

    def test_table1_rows(self, runner):
        report = table1.run(self.CONFIG, runner)
        assert report.rows == [
            ["Threads", 4.0, 8.0, 6.0],
            ["Locks", 2.0, 5.0, 3.5],
            ["Variables", 10.0, 30.0, 20.0],
            ["Events", 100.0, 200.0, 150.0],
            ["Sync. Events (%)", 10.0, 30.0, 20.0],
            ["R/W Events (%)", 70.0, 90.0, 80.0],
        ]

    def test_table3_rows(self, runner):
        report = table3.run(self.CONFIG, runner)
        first, second = runner.profiles
        assert report.rows == [
            [first.name, first.family, 100, 4, 10, 2, 30.0],
            [second.name, second.family, 200, 8, 30, 5, 10.0],
        ]

    def test_figure7_sync_column(self, runner):
        report = figure7.run(self.CONFIG, runner)
        first, second = runner.profiles
        # Sorted by sync%; HB+detect medians 6 / 2 and 4 / 1 ms.
        assert report.rows == [
            [second.name, 8, 10.0, 0.004, 0.001, 4.0],
            [first.name, 4, 30.0, 0.006, 0.002, 3.0],
        ]


class TestOneTracePerWorkload:
    """Each profile and each Figure-10 point is generated once per run."""

    CONFIG = ExperimentConfig(
        scale=0.05, repetitions=1, max_profiles=2, events=120, thread_counts=(3, 5)
    )

    @pytest.fixture
    def generated(self, monkeypatch):
        """Generations by profile name or Figure-10 point."""
        counts = Counter()
        real_generate = gen_suite.generate_trace

        def generate_trace(config):
            counts[config.name] += 1
            return real_generate(config)

        monkeypatch.setattr(gen_suite, "generate_trace", generate_trace)
        for scenario, factory in list(SCENARIOS.items()):

            def counted(threads, events, seed=0, scenario=scenario, factory=factory):
                counts[f"{scenario}-t{threads}"] += 1
                return factory(threads, events, seed)

            monkeypatch.setitem(SCENARIOS, scenario, counted)
        return counts

    def expected(self):
        names = [profile.name for profile in SuiteRunner(self.CONFIG).profiles]
        names += [f"{scenario}-t{k}" for scenario in SCENARIOS for k in self.CONFIG.thread_counts]
        return dict.fromkeys(names, 1)

    def test_every_experiment_over_one_runner(self, generated):
        runner = SuiteRunner(self.CONFIG)
        for name in sorted(EXPERIMENTS):
            EXPERIMENTS[name].run(self.CONFIG, runner)
        assert dict(generated) == self.expected()

    def test_the_paper_suite(self, generated):
        cases = paper_suite(scale=0.05, max_profiles=2, events=120, thread_counts=(3, 5))
        run_suite(cases, BenchConfig(warmup=0, repeats=1))
        assert dict(generated) == self.expected()


class TestFiguresFromKnownCounts:
    CONFIG = ExperimentConfig(scale=0.05, repetitions=1, max_profiles=2)
    #: Per order, per profile: threads, VTWork, VCWork, TCWork.
    COUNTS = {
        "MAZ": ((4, 100, 150, 100), (8, 50, 150, 100)),
        "SHB": ((4, 100, 300, 100), (8, 50, 1200, 100)),
        "HB": ((4, 100, 600, 150), (8, 50, 1200, 20)),
    }

    @pytest.fixture
    def runner(self, monkeypatch):
        monkeypatch.setattr(bench_runner, "run_case", no_timing)
        runner = SuiteRunner(self.CONFIG)
        for order, per_profile in self.COUNTS.items():
            for profile, (threads, vt, vc, tc) in zip(runner.profiles, per_profile):
                name = work_case_name(profile.name, order)
                runner.results[name] = BenchCaseResult(
                    name=name,
                    kind="work",
                    params=runner.cases[name].params,
                    events=50,
                    runs_ns=[1],
                    meta={"threads": threads, "vt_work": vt, "vc_work": vc, "tc_work": tc},
                )
        return runner

    def test_figure8_rows(self, runner):
        report = figure8.run(self.CONFIG, runner)
        first, second = (profile.name for profile in runner.profiles)
        assert report.rows == [
            [first, 4, 100, 600, 150, 6.0, 1.5],
            [second, 8, 50, 1200, 20, 24.0, 0.4],
        ]
        assert report.summary["max TCWork/VTWork"] == 1.5
        assert report.summary["max VCWork/VTWork"] == 24.0

    def test_figure9_histograms(self, runner):
        report = figure9.run(self.CONFIG, runner)
        filled = {(row[0], row[1]): row[2] for row in report.rows if row[2]}
        assert filled == {
            ("MAZ", "[1, 2)"): 2,
            ("SHB", "[2, 5)"): 1,
            ("SHB", "[10, 20)"): 1,
            ("HB", "[2, 5)"): 1,
            ("HB", "[50, 80)"): 1,
        }
        assert report.summary["MAZ max VCWork/TCWork"] == 1.5
        assert report.summary["SHB mean VCWork/TCWork"] == 7.5
        assert report.summary["HB max VCWork/TCWork"] == 60.0


class TestPaperClaimsOverTheSuite:
    """The paper's qualitative claims on every suite profile at scale 0.15."""

    CONFIG = ExperimentConfig(scale=0.15, repetitions=1)

    @pytest.fixture(scope="class")
    def runner(self):
        return SuiteRunner(self.CONFIG)

    def test_figure8_tree_clocks_are_vt_optimal_and_vector_clocks_are_not(self, runner):
        measurements = [runner.work_measurement(profile, "HB") for profile in runner.profiles]
        assert len(measurements) == 32
        assert all(is_vt_optimal(measurement) for measurement in measurements)
        assert max(measurement.vc_over_vt for measurement in measurements) > 3.0

    @pytest.mark.parametrize("order", DEFAULT_ORDERS)
    def test_figure9_tree_clocks_never_do_more_work(self, runner, order):
        ratios = [runner.work_measurement(profile, order).vc_over_tc for profile in runner.profiles]
        assert min(ratios) >= 0.99
        assert max(ratios) > 2.0

    def test_table1_rows(self, runner):
        report = table1.run(self.CONFIG, runner)
        rows = {row[0]: row[1:] for row in report.rows}
        assert list(rows) == [
            "Threads",
            "Locks",
            "Variables",
            "Events",
            "Sync. Events (%)",
            "R/W Events (%)",
        ]
        assert rows["Threads"][1] >= 50
        assert 0.0 < rows["Sync. Events (%)"][2] < 100.0

    def test_table3_rows(self, runner):
        report = table3.run(self.CONFIG, runner)
        assert [row[0] for row in report.rows] == [profile.name for profile in runner.profiles]
        assert all(row[2] > 0 and row[3] > 1 for row in report.rows)


class TestSpearman:
    def test_perfect_positive_correlation(self):
        assert spearman_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative_correlation(self):
        assert spearman_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_degenerate_inputs(self):
        assert spearman_correlation([1], [1]) == 0.0
        assert spearman_correlation([1, 2], [1]) == 0.0

    def test_ties_share_their_average_rank_whatever_the_input_order(self):
        assert spearman_correlation([1, 1, 2], [1, 2, 3]) == pytest.approx(0.866, abs=1e-3)
        assert spearman_correlation([1, 1, 2], [2, 1, 3]) == pytest.approx(0.866, abs=1e-3)
