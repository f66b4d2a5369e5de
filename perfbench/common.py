"""Shared plumbing of the benchmark: paths, statistics, provenance, child processes.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout, never from an installed copy.
Everything it writes goes under ``.perfbench_work/`` in the checkout and
is removed when the run ends.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: The percentile latency_tail_s is reported at, per workload.  It is
#: fixed rather than recomputed per run, so that a faster program (more
#: samples per run) does not move it; each workload yields enough samples
#: per run for at least ten beyond it (at least 50 walks for the analysis
#: workloads, at least 160 submissions for served-corpus, where p90 falls
#: among the large traces, one submission in eight).
TAIL_PERCENTILE = {"hb-star": 80, "access-detect": 80, "served-corpus": 90}
TAIL_MIN_BEYOND = 10


#: Nominal CPU time of one calibration run (:func:`calibration_ns`).
#: The walks of the analysis workloads are reported scaled by
#: ``CALIBRATION_NOMINAL_NS / measured``:
#: on a shared 2-core Xeon host the speed changes from one minute to the
#: next (a fixed walk takes 0.10 s in one 10 s
#: window and 0.19 s in another), and a fixed pure-Python loop timed next
#: to the work slows by the same factor (the ratio stayed within 1%).  The
#: scaled times are what the run would have taken at the nominal speed;
#: the raw wall-clock values are kept in the details line.
CALIBRATION_NOMINAL_NS = 3_000_000


class BenchError(RuntimeError):
    """A set-up problem that makes a measurement impossible."""


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import ``repro`` from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def make_workdir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def sub_seed(seed: int, *parts: int) -> int:
    """A deterministic derived seed (stable across Python processes)."""
    value = seed * 1_000_003 + 7
    for part in parts:
        value = (value * 1_000_033 + part * 97 + 11) % (1 << 31)
    return value


# -- statistics ------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: Sequence[float], workload: str) -> Tuple[float, int, int]:
    """The tail latency: ``(value, percentile, samples)``.

    Reported at the workload's :data:`TAIL_PERCENTILE`; a run with too few samples for
    ten beyond it falls back to the highest percentile that has them
    (p50 at worst), and the percentile returned says which.
    """
    count = len(values)
    pct = TAIL_PERCENTILE[workload]
    while pct > 50 and count * (100 - pct) / 100 < TAIL_MIN_BEYOND:
        pct -= 5
    if count < 2:
        return values[0], pct, count
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct, count


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(list(values))
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


# -- machine speed ---------------------------------------------------------------------


def _calibration_kernel() -> int:
    table: Dict[int, int] = {}
    out: List[int] = []
    for i in range(20_000):
        table[i & 1023] = i
        out.append(table.get((i * 7) & 1023, 0) + i)
    return len(out)


def calibration_ns() -> int:
    """CPU time of this thread for the calibration kernel (best of three).

    Thread CPU time leaves out time spent waiting for a core or for the
    GIL, so other threads of the benchmark do not inflate it; it tracks
    how fast the machine executes Python right now.
    """
    best = None
    for _ in range(3):
        started = time.thread_time_ns()
        _calibration_kernel()
        spent = time.thread_time_ns() - started
        best = spent if best is None else min(best, spent)
    return best


def speed(calibration: float) -> float:
    """Factor that scales a time measured next to ``calibration`` to nominal speed."""
    return CALIBRATION_NOMINAL_NS / calibration


# -- provenance ------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def provenance(workload: str, seed: int) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


# -- child processes -------------------------------------------------------------------


def run_json_child(args: List[str], timeout: float) -> Dict[str, object]:
    """Run ``python <args>`` and parse the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[:2]} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def now_ns() -> int:
    return time.monotonic_ns()
