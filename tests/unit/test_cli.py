"""Unit tests for the experiments command-line interface."""

import pytest

from repro.bench.suites import paper_suite
from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_default_options(self):
        args = build_parser().parse_args(["table2"])
        assert args.scale == 1.0
        assert args.repetitions == 1
        assert args.orders == ["MAZ", "SHB", "HB"]

    def test_custom_options(self):
        args = build_parser().parse_args(
            ["figure10", "--events", "500", "--threads", "4", "8", "--scale", "0.5"]
        )
        assert args.events == 500
        assert args.threads == [4, 8]
        assert args.scale == 0.5

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_run_single_experiment(self, capsys):
        exit_code = main(["table1", "--scale", "0.1", "--max-profiles", "3", "--repetitions", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "table1" in output and "Threads" in output

    def test_run_figure10_with_custom_sweep(self, capsys):
        exit_code = main(
            ["figure10", "--events", "200", "--threads", "3", "--repetitions", "1"]
        )
        assert exit_code == 0
        assert "single_lock" in capsys.readouterr().out

    def test_orders_can_be_restricted(self, capsys):
        exit_code = main(
            ["table2", "--scale", "0.1", "--max-profiles", "2", "--orders", "HB", "--repetitions", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "HB" in output and "MAZ" not in output.split("Configuration")[1].splitlines()[0]

    def test_all_measures_each_table2_case_once(self, measured_cases, capsys):
        argv = ["all", "--scale", "0.05", "--max-profiles", "2", "--repetitions", "1"]
        assert main(argv + ["--events", "200", "--threads", "3"]) == 0
        capsys.readouterr()
        table2_names = [
            case.name for case in measured_cases if case.name.startswith("paper/table2/")
        ]
        expected = [
            case.name
            for case in paper_suite(scale=0.05, max_profiles=2)
            if case.name.startswith("paper/table2/")
        ]
        assert sorted(table2_names) == sorted(expected)


class TestOptionErrors:
    """Bad option values exit 2 with an ``error:`` line, not a traceback."""

    def assert_rejected(self, argv, capsys, option):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and option in err

    def test_zero_repetitions(self, capsys):
        self.assert_rejected(["table2", "--repetitions", "0"], capsys, "repetitions")

    def test_zero_scale(self, capsys):
        self.assert_rejected(["table1", "--scale", "0"], capsys, "scale")

    def test_unknown_order(self, capsys):
        self.assert_rejected(["table2", "--orders", "XYZ"], capsys, "XYZ")

    def test_zero_threads(self, capsys):
        self.assert_rejected(["figure10", "--threads", "0"], capsys, "threads")

    def test_zero_events(self, capsys):
        self.assert_rejected(["figure10", "--events", "0"], capsys, "events")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_max_profiles_below_one(self, capsys, cap):
        self.assert_rejected(["table3", "--max-profiles", cap], capsys, "max_profiles")


class TestRepeatedEntries:
    """A repeated ``--threads`` or ``--orders`` entry counts once."""

    def test_repeated_thread_count_is_one_point(self, measured_cases, capsys):
        assert main(["figure10", "--events", "100", "--threads", "4", "4"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("star_")]
        assert len(rows) == 1
        names = [case.name for case in measured_cases]
        assert names.count("paper/figure10/star_topology-t4") == 1

    def test_repeated_order_is_one_column(self, capsys):
        argv = ["table2", "--scale", "0.05", "--max-profiles", "1", "--orders", "HB", "hb"]
        assert main(argv) == 0
        header = capsys.readouterr().out.split("Configuration")[1].splitlines()[0]
        assert header.split() == ["HB"]
