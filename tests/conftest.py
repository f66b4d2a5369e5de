"""Shared fixtures for the test suite.

Trace-generation helpers live in :mod:`util_traces` (importable because
``tests/`` is on the pytest ``pythonpath``).
"""

from __future__ import annotations

import pytest

import repro.bench.runner as bench_runner
from repro.clocks import ClockContext
from repro.trace import Trace, TraceBuilder


@pytest.fixture
def measured_cases(monkeypatch):
    """Every bench case timed during the test, in order (the timing still runs)."""
    measured = []
    real_run_case = bench_runner.run_case

    def recording_run_case(case, config=None, traces=None):
        measured.append(case)
        return real_run_case(case, config, traces)

    monkeypatch.setattr(bench_runner, "run_case", recording_run_case)
    return measured


@pytest.fixture
def context() -> ClockContext:
    """A clock context over five threads (1..5)."""
    return ClockContext(threads=[1, 2, 3, 4, 5])


@pytest.fixture
def figure2a_trace() -> Trace:
    """The trace of Figure 2a (direct monotonicity example)."""
    builder = TraceBuilder(name="figure2a")
    builder.sync(1, "l1")     # e1 (acq+rel)
    builder.sync(2, "l1")     # e2
    builder.sync(3, "l1")     # e3
    builder.sync(2, "l2")     # e4
    builder.sync(4, "l2")     # e5
    builder.sync(3, "l3")     # e6
    builder.sync(4, "l3")     # e7
    return builder.build()


@pytest.fixture
def figure11_trace() -> Trace:
    """The trace σ of Figure 11a (Appendix B worked example)."""
    builder = TraceBuilder(name="figure11")
    builder.acquire(1, "l1").release(1, "l1")          # e1, e2
    builder.acquire(4, "l2").release(4, "l2")          # e3, e4
    builder.acquire(5, "l3").release(5, "l3")          # e5, e6
    builder.acquire(3, "l1")                            # e7
    builder.acquire(3, "l3").release(3, "l3")          # e8, e9
    builder.release(3, "l1")                            # e10
    builder.acquire(4, "l3").release(4, "l3")          # e11, e12
    builder.acquire(2, "l1").release(2, "l1")          # e13, e14
    builder.acquire(2, "l2").release(2, "l2")          # e15, e16
    return builder.build()


@pytest.fixture
def racy_trace() -> Trace:
    """A minimal trace with an obvious HB race on ``x``."""
    return (
        TraceBuilder(name="racy")
        .write(1, "x")
        .sync(1, "l")
        .sync(2, "m")
        .write(2, "x")
        .build()
    )


@pytest.fixture
def race_free_trace() -> Trace:
    """A minimal trace where all conflicting accesses are lock-protected."""
    builder = TraceBuilder(name="race-free")
    builder.acquire(1, "l").write(1, "x").release(1, "l")
    builder.acquire(2, "l").write(2, "x").release(2, "l")
    return builder.build()
