"""Shared fixtures for the benchmark harness.

The benchmarks regenerate the paper's tables and figures at a reduced
scale (pure Python is orders of magnitude slower per event than the
paper's Java implementation).  The suite scale below keeps the full
``pytest benchmarks/ --benchmark-only`` run in the minutes range; raise
it for a longer, more faithful evaluation.
"""

from __future__ import annotations

from typing import List

import pytest


def pytest_collection_modifyitems(items) -> None:
    """Mark every test in this directory ``bench``.

    The benchmark harness regenerates the paper's tables and figures —
    minutes of work that should not ride along with the fast tier-1
    suite.  The default ``addopts`` deselect the marker; CI runs the
    dedicated lane with ``pytest -m bench benchmarks``.

    The hook receives the *whole session's* items (pytest calls it for
    every conftest), so it must filter to this directory.
    """
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent
    for item in items:
        if bench_dir in Path(str(item.path)).parents:
            item.add_marker(pytest.mark.bench)

from repro.gen import default_suite
from repro.trace.trace import Trace

#: Event-count multiplier applied to the benchmark-suite profiles.
SUITE_SCALE = 0.4
#: Number of suite profiles exercised by the suite-wide benchmarks.
SUITE_MAX_PROFILES = 10


@pytest.fixture(scope="session")
def suite_traces() -> List[Trace]:
    """Materialized traces of the reduced benchmark suite.

    Every third profile is selected so the subset spans all benchmark
    families (small Java programs up to the many-thread server traces)
    rather than only the first family of the suite.
    """
    profiles = default_suite(scale=SUITE_SCALE)[::3][:SUITE_MAX_PROFILES]
    return [profile.generate() for profile in profiles]


@pytest.fixture(scope="session")
def medium_trace(suite_traces) -> Trace:
    """The largest trace of the reduced suite (used for single-trace benches)."""
    return max(suite_traces, key=len)

