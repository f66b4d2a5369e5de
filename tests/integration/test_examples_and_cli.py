"""Integration tests: the example scripts and the experiments CLI run end to end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

# Spawns one subprocess per example script: runs in the `-m slow` CI lane.
pytestmark = pytest.mark.slow

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=180,
    )


class TestExamples:
    def test_quickstart_runs_and_reports_race(self):
        completed = run_example("quickstart.py")
        assert completed.returncode == 0, completed.stderr
        assert "HB data races found: 1" in completed.stdout
        assert "identical timestamps" in completed.stdout

    def test_bank_example_runs(self):
        completed = run_example("race_detection_bank.py", "--transfers", "80", "--tellers", "4")
        assert completed.returncode == 0, completed.stderr
        assert "racy access" in completed.stdout
        assert "drop-in replacement" in completed.stdout

    def test_star_scalability_example_runs(self):
        completed = run_example("scalability_star.py", "--events", "1500", "--threads", "8", "16")
        assert completed.returncode == 0, completed.stderr
        assert "Star topology" in completed.stdout

    def test_work_metrics_example_reports_no_violations(self):
        completed = run_example("work_metrics.py", "--scale", "0.2", "--max-profiles", "4")
        assert completed.returncode == 0, completed.stderr
        assert "violations observed: 0" in completed.stdout

    def test_serve_observed_example_runs(self):
        completed = run_example(
            "serve_observed.py", "--events", "600", "--threads", "4", "--workers", "2"
        )
        assert completed.returncode == 0, completed.stderr
        assert "live service stats" in completed.stdout
        assert "jobs/s" in completed.stdout
        assert "all jobs completed: True" in completed.stdout
        assert "pool.tasks{outcome=done}: 8" in completed.stdout

    def test_serve_batch_corpus_example_runs(self):
        completed = run_example(
            "serve_batch_corpus.py", "--events", "600", "--threads", "4", "--workers", "2"
        )
        assert completed.returncode == 0, completed.stderr
        assert "deduped to" in completed.stdout
        assert "jobs/sec" in completed.stdout
        assert "all jobs completed: True" in completed.stdout

    def test_pack_and_analyze_example_runs(self):
        completed = run_example("pack_and_analyze.py", "--events", "3000", "--threads", "6")
        assert completed.returncode == 0, completed.stderr
        assert "repro-trace/1" in completed.stdout
        assert "thread universe known upfront" in completed.stdout
        assert "text-fed and colf-fed race counts match: True" in completed.stdout


class TestCliEndToEnd:
    def test_module_invocation_runs_table2(self):
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "table2",
                "--scale",
                "0.1",
                "--max-profiles",
                "3",
                "--repetitions",
                "1",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Average speedup" in completed.stdout

    def test_module_invocation_runs_figure9(self):
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "figure9",
                "--scale",
                "0.1",
                "--max-profiles",
                "3",
                "--repetitions",
                "1",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "VCWork/TCWork" in completed.stdout

    def test_bench_paper_suite_writes_the_table2_artifact(self, tmp_path):
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.bench.cli", "run", "--suite", "paper",
                "--events", "150", "--threads", "4", "--repeats", "1", "--warmup", "0",
                "--quiet", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        artifact = json.loads((tmp_path / "BENCH_paper.json").read_text())
        names = [entry["name"] for entry in artifact["results"]]
        assert "paper/table2/tradebeans-like/HB" in names
        assert "paper/figure10/star_topology-t4" in names
        cell = artifact["results"][0]
        assert set(cell["sub"]) == {"maz+vc", "maz+tc", "maz+vc+detect", "maz+tc+detect"}
        assert {"median_ns", "iqr_ns"} <= set(cell["sub"]["maz+tc"])
        work = {entry["name"]: entry for entry in artifact["results"] if entry["kind"] == "work"}
        expected = sorted(
            name.replace("/table2/", "/work/")
            if name.startswith("paper/table2/")
            else name.replace("/figure10/", "/work/") + "/HB"
            for name in names
            if name.startswith(("paper/table2/", "paper/figure10/"))
        )
        assert sorted(work) == expected and len(names) == 2 * len(expected)
        for entry in work.values():
            meta = entry["meta"]
            assert 0 < meta["vt_work"] <= meta["vc_work"]
            assert meta["tc_work"] <= 3 * meta["vt_work"] + entry["events"]  # Theorem 1
