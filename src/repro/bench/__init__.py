"""``repro.bench`` — reproducible performance measurement and regression gating.

The paper's headline claim is quantitative: tree clocks make the
vector-time hot path (the join / monotone-copy performed for every
synchronization event) dramatically cheaper than vector clocks.  A claim
like that is only worth anything if the measurement is *reproducible* —
fixed workloads, warmup and repetition discipline, a machine-readable
artifact — and if a regression in the hot path is caught automatically
rather than noticed months later.  This package provides exactly that:

* :mod:`repro.bench.kernels` — micro-benchmark kernels: the
  join/copy/increment *operation log* of a trace, recorded once and then
  replayed against any clock class in a tight loop, so the clock data
  structure is measured in isolation from event decoding and dispatch;
* :mod:`repro.bench.suites` — the declarative benchmark suites
  (``clocks``: clock kernels over the Figure-10 scalability scenarios;
  ``session``: full multi-spec :class:`repro.api.Session` walks with
  per-spec feed timing; ``paper``: the Table-2 and Figure-10 cells that
  :mod:`repro.experiments` renders its tables from);
* :mod:`repro.bench.runner` — the measurement discipline (warmup runs,
  N timed repeats, best-of-N as the headline number, the garbage
  collector on while timing and its time per repeat recorded) and the
  one place a case's trace is generated, once per workload;
* :mod:`repro.bench.artifact` — the schema-versioned ``BENCH_<suite>.json``
  artifact format (write / load / validate);
* :mod:`repro.bench.compare` — artifact diffing: compare a current run
  against a baseline and fail when any case slows down beyond a
  threshold;
* :mod:`repro.bench.cli` — the ``repro-bench`` command-line front end
  (also reachable as ``repro bench``).

Quickstart
----------
::

    repro-bench run --suite clocks --suite session --out artifacts/
    repro-bench compare artifacts/BENCH_clocks.json new/BENCH_clocks.json --threshold 10
"""

from .artifact import (
    SCHEMA_VERSION,
    artifact_path,
    load_artifact,
    machine_fingerprint,
    make_artifact,
    validate_artifact,
    write_artifact,
)
from .compare import CaseDiff, ComparisonReport, compare_artifacts, format_report
from .kernels import ClockOpLog, record_clock_ops, replay_clock_ops
from .runner import BenchCaseResult, BenchConfig, run_case, run_suite
from .suites import SUITES, BenchCase, suite_cases, suite_names

__all__ = [
    "BenchCase",
    "BenchCaseResult",
    "BenchConfig",
    "CaseDiff",
    "ClockOpLog",
    "ComparisonReport",
    "SCHEMA_VERSION",
    "SUITES",
    "artifact_path",
    "compare_artifacts",
    "format_report",
    "load_artifact",
    "machine_fingerprint",
    "make_artifact",
    "record_clock_ops",
    "replay_clock_ops",
    "run_case",
    "run_suite",
    "suite_cases",
    "suite_names",
    "validate_artifact",
    "write_artifact",
]
