"""Unit tests of the ``repro.bench`` subsystem: suites, runner, artifact, compare."""

from __future__ import annotations

import gc
import json
import os
import platform
from pathlib import Path

import pytest

import repro.bench.artifact as bench_artifact
from repro.bench import (
    SCHEMA_VERSION,
    BenchConfig,
    compare_artifacts,
    format_report,
    load_artifact,
    machine_fingerprint,
    make_artifact,
    record_clock_ops,
    replay_clock_ops,
    run_case,
    suite_cases,
    suite_names,
    validate_artifact,
    write_artifact,
)
from repro.bench.cli import main as bench_main
from repro.bench.kernels import OP_COPY_AUX, OP_INC, OP_JOIN_AUX
from repro.api.registry import ORDERS
from repro.bench.runner import BenchCaseResult, _timed_runs
from repro.bench.suites import paper_suite
from repro.clocks import TreeClock, VectorClock
from repro.clocks.base import WorkCounter
from repro.gen import SCENARIOS, default_suite
from repro.metrics import measure_work
from repro.trace import TraceBuilder


def small_trace():
    builder = TraceBuilder(name="bench-unit")
    builder.sync(1, "l")
    builder.write(1, "x")
    builder.sync(2, "l")
    builder.read(2, "x")
    builder.sync(3, "l")
    return builder.build()


class TestKernels:
    def test_record_hb_ops_cover_sync_events(self):
        log = record_clock_ops(small_trace(), order="hb")
        opcodes = [op[0] for op in log.ops]
        # One increment per event, one join per acquire, one copy per release.
        assert opcodes.count(OP_INC) == len(small_trace())
        assert opcodes.count(OP_JOIN_AUX) == 3
        assert opcodes.count(OP_COPY_AUX) == 3
        assert log.num_joins == 3
        assert log.num_copies == 3

    def test_record_shb_ops_add_variable_ops(self):
        hb_log = record_clock_ops(small_trace(), order="hb")
        shb_log = record_clock_ops(small_trace(), order="shb")
        assert len(shb_log) == len(hb_log) + 2  # one read + one write op

    def test_record_rejects_unknown_order(self):
        with pytest.raises(ValueError, match="unknown op-log order"):
            record_clock_ops(small_trace(), order="maz")

    def test_replay_is_clock_agnostic_and_counts_work(self):
        log = record_clock_ops(small_trace(), order="shb")
        snapshots = {}
        for clock_class in (TreeClock, VectorClock):
            counter = WorkCounter()
            clocks = replay_clock_ops(clock_class, log, counter=counter)
            snapshots[clock_class] = sorted(
                (clock.owner, tuple(sorted(clock.as_dict().items()))) for clock in clocks
            )
            assert counter.increments == len(small_trace())
        # The replay computes the same vector times with either clock.
        assert snapshots[TreeClock] == snapshots[VectorClock]


class TestSuites:
    def test_suite_names_are_stable(self):
        assert suite_names() == ["clocks", "obs", "paper", "pipeline", "serve", "session"]

    def test_case_names_are_unique_and_stable(self):
        for suite in suite_names():
            cases = suite_cases(suite, events=100)
            names = [case.name for case in cases]
            assert len(names) == len(set(names))
            assert all(
                name.startswith(
                    ("clock_ops/", "session/", "serve/", "pipeline/", "obs/", "paper/")
                )
                for name in names
            )

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark suite"):
            suite_cases("nope")

    def test_trace_files_extend_session_suite(self, tmp_path):
        path = tmp_path / "captured.std"
        cases = suite_cases("session", events=100, trace_files=[str(path)])
        assert any(case.params.get("path") == str(path) for case in cases)


class TestRunnerAndArtifact:
    def test_run_case_clock_ops(self):
        case = suite_cases("clocks", events=60)[0]
        result = run_case(case, BenchConfig(warmup=0, repeats=2))
        assert result.events == 60
        assert len(result.runs_ns) == 2
        assert result.best_ns == min(result.runs_ns)
        assert result.meta["ops"] > 60
        assert len(result.meta["gc_ns"]) == 2

    def test_timing_keeps_the_collector_on_and_records_its_time(self):
        enabled = []

        def collecting_walk():
            enabled.append(gc.isenabled())
            gc.collect()

        runs, gc_ns = _timed_runs(collecting_walk, BenchConfig(warmup=1, repeats=3))
        assert enabled == [True] * 4
        assert len(runs) == len(gc_ns) == 3
        assert all(0 < collected <= run for collected, run in zip(gc_ns, runs))

    def test_run_case_session_collects_per_spec_times(self):
        case = suite_cases("session", events=60)[0]
        result = run_case(case, BenchConfig(warmup=1, repeats=2))
        assert set(result.sub) == set(case.params["specs"])
        for series in result.sub.values():
            assert len(series) == 2  # warmup walks are trimmed
        assert result.events == 60

    @pytest.mark.parametrize(
        "name",
        [
            "paper/work/account-like/MAZ",
            "paper/work/account-like/SHB",
            "paper/work/account-like/HB",
            "paper/work/star_topology-t4/HB",
        ],
    )
    def test_paper_work_case_is_measure_work_of_its_trace(self, name):
        cases = paper_suite(scale=0.1, max_profiles=1, events=300, thread_counts=(4,))
        case = next(case for case in cases if case.name == name)
        result = run_case(case, BenchConfig(warmup=2, repeats=5))
        if case.params["source"] == "profile":
            trace = default_suite(scale=0.1, max_profiles=1)[0].generate()
        else:
            trace = SCENARIOS["star_topology"](4, 300, 0)
        work = measure_work(trace, ORDERS.get(name.rsplit("/", 1)[1]))
        assert result.kind == "work" and len(result.runs_ns) == 1
        assert result.events == work.num_events == len(trace)
        assert result.meta == {
            "threads": work.num_threads,
            "vt_work": work.vt_work,
            "vc_work": work.vc_work,
            "tc_work": work.tc_work,
        }

    def test_artifact_roundtrip_and_validation(self, tmp_path):
        config = BenchConfig(warmup=0, repeats=1)
        results = [run_case(case, config) for case in suite_cases("clocks", events=60)[:2]]
        artifact = make_artifact("clocks", results, config)
        assert validate_artifact(artifact) == []
        path = write_artifact(tmp_path / "BENCH_clocks.json", artifact)
        assert load_artifact(path)["schema"] == SCHEMA_VERSION

    def test_validation_rejects_broken_artifacts(self):
        assert validate_artifact([]) != []
        assert any("schema" in p for p in validate_artifact({"schema": "bogus/9"}))
        artifact = {
            "schema": SCHEMA_VERSION,
            "suite": "clocks",
            "created_unix": 1.0,
            "config": {},
            "results": [{"name": "a", "kind": "clock_ops", "events": 1, "repeats": 1,
                         "runs_ns": [5, 3], "best_ns": 4, "mean_ns": 4.0}],
        }
        assert any("best_ns" in p for p in validate_artifact(artifact))

    def test_median_and_iqr_of_known_runs(self):
        result = BenchCaseResult(
            name="a", kind="session", params={}, events=10,
            runs_ns=[10, 40, 20, 30, 100], sub={"hb+tc": [7]},
        )
        payload = result.as_dict()
        assert payload["best_ns"] == 10 and payload["mean_ns"] == 40.0
        assert payload["median_ns"] == 30
        assert payload["iqr_ns"] == 40 - 20  # inclusive quartiles of 10..100
        assert payload["sub"]["hb+tc"]["median_ns"] == 7
        assert payload["sub"]["hb+tc"]["iqr_ns"] == 0  # a single run has no spread

    def test_committed_baselines_still_load(self):
        baselines = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
        paths = sorted(baselines.glob("BENCH_*.json"))
        assert len(paths) == 5
        for path in paths:
            assert load_artifact(path)["results"], path

    def test_fingerprint_records_cpu_count_and_model(self, tmp_path, monkeypatch):
        cpuinfo = tmp_path / "cpuinfo"
        cpuinfo.write_text("processor\t: 0\nmodel\t\t: 85\nmodel name\t: Test CPU @ 2.0GHz\n")
        monkeypatch.setattr(bench_artifact, "_CPUINFO", cpuinfo)
        fingerprint = machine_fingerprint()
        assert fingerprint["nproc"] == os.cpu_count()
        assert fingerprint["cpu"] == "Test CPU @ 2.0GHz"

    def test_fingerprint_cpu_falls_back_to_platform(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_artifact, "_CPUINFO", tmp_path / "absent")
        assert machine_fingerprint()["cpu"] == platform.processor()

    def test_bench_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BenchConfig(warmup=-1)
        with pytest.raises(ValueError):
            BenchConfig(repeats=0)


def _artifact_with(best_ns_by_name, suite="clocks"):
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "created_unix": 0.0,
        "machine": {},
        "config": {"warmup": 0, "repeats": 1},
        "results": [
            {"name": name, "kind": "clock_ops", "events": 100, "repeats": 1,
             "runs_ns": [best], "best_ns": best, "mean_ns": float(best)}
            for name, best in best_ns_by_name.items()
        ],
    }


class TestCompare:
    def test_identical_artifacts_are_ok(self):
        artifact = _artifact_with({"a": 1_000_000, "b": 2_000_000})
        report = compare_artifacts(artifact, artifact, threshold_pct=10)
        assert report.ok
        assert not report.regressions
        assert "comparison OK" in format_report(report)

    def test_injected_slowdown_is_flagged(self):
        baseline = _artifact_with({"a": 1_000_000, "b": 2_000_000})
        current = _artifact_with({"a": 1_000_000, "b": 5_000_000})
        report = compare_artifacts(baseline, current, threshold_pct=10)
        assert not report.ok
        assert [diff.name for diff in report.regressions] == ["b"]
        assert report.regressions[0].ratio == pytest.approx(2.5)
        assert "REGRESSION" in format_report(report)

    def test_noise_floor_suppresses_tiny_cases(self):
        baseline = _artifact_with({"a": 1_000})
        current = _artifact_with({"a": 10_000})  # 10x, but below min_ns
        report = compare_artifacts(baseline, current, threshold_pct=10, min_ns=50_000)
        assert report.ok

    def test_missing_and_new_cases_reported(self):
        baseline = _artifact_with({"a": 1_000_000, "gone": 1_000_000})
        current = _artifact_with({"a": 1_000_000, "fresh": 1_000_000})
        report = compare_artifacts(baseline, current)
        assert report.missing == ["gone"]
        assert report.new_cases == ["fresh"]
        assert report.ok  # missing alone fails only in --strict


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "clock_ops/single_lock-t10/TC" in out

    def test_compare_exit_codes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(_artifact_with({"a": 1_000_000})))
        current.write_text(json.dumps(_artifact_with({"a": 1_000_000})))
        assert bench_main(["compare", str(baseline), str(current)]) == 0
        current.write_text(json.dumps(_artifact_with({"a": 9_000_000})))
        assert bench_main(["compare", str(baseline), str(current), "--threshold", "50"]) == 1
        # A generous threshold tolerates the same slowdown.
        assert bench_main(["compare", str(baseline), str(current), "--threshold", "5000"]) == 0
        capsys.readouterr()

    def test_compare_json_report(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(_artifact_with({"a": 1_000_000})))
        current.write_text(json.dumps(_artifact_with({"a": 4_000_000})))
        assert bench_main(["compare", str(baseline), str(current), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["regressions"] == ["a"]

    def test_compare_strict_fails_on_missing(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(_artifact_with({"a": 1_000_000, "gone": 1_000_000})))
        current.write_text(json.dumps(_artifact_with({"a": 1_000_000})))
        assert bench_main(["compare", str(baseline), str(current)]) == 0
        assert bench_main(["compare", str(baseline), str(current), "--strict"]) == 1
        capsys.readouterr()

    def test_compare_rejects_garbage_inputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_artifact_with({"a": 1_000_000})))
        assert bench_main(["compare", str(bad), str(good)]) == 2
        assert bench_main(["compare", str(tmp_path / "absent.json"), str(good)]) == 2
        capsys.readouterr()

    def test_repeated_thread_count_is_one_case(self, tmp_path, capsys):
        argv = ["run", "--suite", "clocks", "--threads", "4,4", "--events", "60"]
        assert bench_main(argv + ["--repeats", "1", "--quiet", "--out", str(tmp_path)]) == 0
        artifact = tmp_path / "BENCH_clocks.json"
        names = [entry["name"] for entry in load_artifact(artifact)["results"]]
        assert len(names) == len(set(names)) == 6
        assert bench_main(["compare", str(artifact), str(artifact)]) == 0
        capsys.readouterr()

    def test_run_rejects_bad_knobs(self, capsys):
        assert bench_main(["run", "--events", "5"]) == 2
        assert bench_main(["run", "--repeats", "0"]) == 2
        with pytest.raises(SystemExit):
            bench_main(["run", "--threads", "abc"])
        capsys.readouterr()
