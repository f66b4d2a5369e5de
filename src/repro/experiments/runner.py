"""Shared machinery for the experiment runners.

The paper's evaluation runs every benchmark trace through each of the
three partial orders with both clock data structures, with and without
the analysis component (Table 2, Figures 6 and 7), and separately
measures data-structure work (Figures 8 and 9) and scalability
(Figure 10).  :class:`ExperimentConfig` captures the knobs shared by all
of these (suite scale, repetitions, which partial orders to include) and
:class:`SuiteRunner` caches the generated traces and the per-trace
measurements so that several experiment runners can share one sweep.

Timing goes through :mod:`repro.bench`, the one timer.  The cells are
the ``paper/table2/<profile>/<ORDER>`` cases of
:func:`repro.bench.suites.paper_suite`: one four-spec session walk
(``<o>+vc``, ``<o>+tc``, ``<o>+vc+detect``, ``<o>+tc+detect``) per
(profile, order), measured with one warmup walk and then
``repetitions`` timed walks.  A cell's VC or TC time is the median of
that spec's timed walks.  ``repro-bench run --suite paper`` measures the
same cases.  Work cells go through :func:`~repro.metrics.work.measure_work`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..analysis.engine import PartialOrderAnalysis
from ..api.registry import ORDERS
from ..bench.runner import BenchCaseResult, BenchConfig, median_iqr, run_suite
from ..bench.suites import PAPER_ORDERS, BenchCase, paper_suite, table2_case_name
from ..gen.suite import BenchmarkProfile, default_suite
from ..metrics.work import WorkMeasurement, measure_work
from ..trace.stats import TraceStatistics, compute_statistics
from ..trace.trace import Trace

#: The partial orders of the evaluation, in the order the paper lists them.
DEFAULT_ORDERS = PAPER_ORDERS


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Shared knobs for the experiment runners.

    Attributes
    ----------
    scale:
        Multiplier applied to the suite's per-profile event counts.  The
        default of 1.0 gives a laptop-friendly run; larger values stress
        the data structures more (the paper's traces are several orders
        of magnitude longer).
    repetitions:
        Timed walks per measurement, after one warmup walk (the paper
        uses 3).
    orders:
        Which partial orders to include.
    max_profiles:
        Optional cap on the number of suite profiles (for quick runs).
    families:
        Optional family filter for the suite.
    server:
        Optional ``host:port`` of a running ``repro serve`` instance.
        When set, :meth:`SuiteRunner.sweep` ships every suite trace to
        that server and collects the (trace × order × clock) cells from
        its results store instead of running them in-process.

    Raises :class:`ValueError` for a non-positive ``scale``, fewer than
    one repetition or an unknown order.
    """

    scale: float = 1.0
    repetitions: int = 3
    orders: Sequence[str] = DEFAULT_ORDERS
    max_profiles: Optional[int] = None
    families: Optional[Sequence[str]] = None
    server: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        self.analysis_classes()

    def analysis_classes(self) -> List[Type[PartialOrderAnalysis]]:
        """The analysis classes selected by :attr:`orders`."""
        return [ORDERS.get(order) for order in self.orders]


@dataclass(frozen=True, slots=True)
class SpeedupSample:
    """Vector-clock vs tree-clock comparison on one trace."""

    trace_name: str
    partial_order: str
    with_analysis: bool
    num_events: int
    num_threads: int
    vc_seconds: float
    tc_seconds: float

    @property
    def speedup(self) -> float:
        """``VC time / TC time`` — values above 1 mean tree clocks win."""
        return self.vc_seconds / self.tc_seconds if self.tc_seconds > 0 else float("inf")

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for tabular reports."""
        return {
            "trace": self.trace_name,
            "order": self.partial_order,
            "analysis": self.with_analysis,
            "events": self.num_events,
            "threads": self.num_threads,
            "VC (s)": round(self.vc_seconds, 4),
            "TC (s)": round(self.tc_seconds, 4),
            "speedup": round(self.speedup, 3),
        }


def average_speedup(samples: Sequence[SpeedupSample]) -> float:
    """Arithmetic mean of per-trace speedups, as reported in Table 2."""
    if not samples:
        return 0.0
    return sum(sample.speedup for sample in samples) / len(samples)


def median_seconds(result: BenchCaseResult, spec: str) -> float:
    """One cell's time: the median of ``spec``'s timed walks, in seconds."""
    return median_iqr(result.sub[spec])[0] / 1e9


class SuiteRunner:
    """Generates the benchmark suite once and caches per-trace measurements.

    :attr:`results` holds the measured ``paper/table2`` cases by name;
    a case is timed the first time a table asks for one of its cells.
    """

    def __init__(self, config: ExperimentConfig = ExperimentConfig()) -> None:
        self.config = config
        self.results: Dict[str, BenchCaseResult] = {}
        self._profiles: Optional[List[BenchmarkProfile]] = None
        self._cases: Optional[Dict[str, BenchCase]] = None
        self._traces: Dict[str, Trace] = {}
        self._work: Dict[Tuple[str, str], WorkMeasurement] = {}

    # -- suite materialization -------------------------------------------------------

    @property
    def profiles(self) -> List[BenchmarkProfile]:
        """The benchmark profiles selected by the configuration."""
        if self._profiles is None:
            self._profiles = default_suite(
                scale=self.config.scale,
                families=self.config.families,
                max_profiles=self.config.max_profiles,
            )
        return self._profiles

    @property
    def cases(self) -> Dict[str, BenchCase]:
        """The ``paper/table2`` cases of the selected profiles, by name.

        Every order has its cases, so Figure 7 (always HB) works whatever
        :attr:`ExperimentConfig.orders` selects for the tables.
        """
        if self._cases is None:
            self._cases = {
                case.name: case
                for case in paper_suite(
                    scale=self.config.scale,
                    max_profiles=self.config.max_profiles,
                    families=self.config.families,
                    scenarios=(),
                )
            }
        return self._cases

    def trace(self, profile: BenchmarkProfile) -> Trace:
        """The (cached) trace of one profile."""
        cached = self._traces.get(profile.name)
        if cached is None:
            cached = profile.generate()
            self._traces[profile.name] = cached
        return cached

    def traces(self) -> List[Trace]:
        """All traces of the suite, generated lazily and cached."""
        return [self.trace(profile) for profile in self.profiles]

    # -- per-trace measurements ---------------------------------------------------------

    def statistics(self) -> List[TraceStatistics]:
        """Per-trace statistics (Table 3 rows)."""
        return [compute_statistics(trace) for trace in self.traces()]

    def result(self, profile: BenchmarkProfile, order: str) -> BenchCaseResult:
        """The timed ``paper/table2`` case of one (profile, order) pair."""
        name = table2_case_name(profile.name, order)
        cached = self.results.get(name)
        if cached is None:
            config = BenchConfig(warmup=1, repeats=self.config.repetitions)
            cached = run_suite([self.cases[name]], config)[0]
            self.results[name] = cached
        return cached

    def speedup(self, profile: BenchmarkProfile, order: str, with_analysis: bool) -> SpeedupSample:
        """The VC-vs-TC timing comparison of one cell (PO or PO + analysis)."""
        result = self.result(profile, order)
        suffix = "+detect" if with_analysis else ""
        return SpeedupSample(
            trace_name=profile.name,
            partial_order=order.upper(),
            with_analysis=with_analysis,
            num_events=result.events,
            num_threads=self.trace(profile).num_threads,
            vc_seconds=median_seconds(result, f"{order.lower()}+vc{suffix}"),
            tc_seconds=median_seconds(result, f"{order.lower()}+tc{suffix}"),
        )

    def speedups(self, with_analysis: bool) -> List[SpeedupSample]:
        """Timing comparisons for every (trace, partial order) pair."""
        return [
            self.speedup(profile, order, with_analysis)
            for profile in self.profiles
            for order in self.config.orders
        ]

    def work_measurement(
        self, trace: Trace, analysis_class: Type[PartialOrderAnalysis]
    ) -> WorkMeasurement:
        """The (cached) work metrics of one (trace, partial order) pair."""
        key = (trace.name, analysis_class.PARTIAL_ORDER)
        cached = self._work.get(key)
        if cached is None:
            cached = measure_work(trace, analysis_class)
            self._work[key] = cached
        return cached

    def work_measurements(
        self, orders: Optional[Sequence[str]] = None
    ) -> List[WorkMeasurement]:
        """Work metrics for every trace and the selected partial orders."""
        selected = list(orders) if orders is not None else list(self.config.orders)
        classes = [ORDERS.get(name) for name in selected]
        return [
            self.work_measurement(self.trace(profile), analysis_class)
            for profile in self.profiles
            for analysis_class in classes
        ]

    # -- the whole sweep, machine-readable ----------------------------------------------

    def remote_sweep(self, address: str) -> Dict[str, object]:
        """Run the detection sweep on a running ``repro serve`` instance.

        Every suite profile's trace is submitted to the server (ingested
        content-addressed into its corpus) with one
        ``<order>+<clock>+detect`` spec per (order × clock) cell; the
        call then blocks until the server's job queue drains and reads
        the cells back from its results store.  Worker-process timings
        (``elapsed_ns``) ride along per cell, but the headline output is
        the functional matrix: per-trace, per-spec race counts computed
        by a shared remote worker fleet instead of in-process fan-out.
        """
        from ..api.registry import CLOCKS
        from ..serve.client import ServeClient

        specs = [
            f"{order.lower()}+{clock.lower()}+detect"
            for order in self.config.orders
            for clock in CLOCKS.names()
        ]
        cells: List[Dict[str, object]] = []
        with ServeClient.connect(address) as client:
            digests: Dict[str, str] = {}
            job_ids: List[str] = []
            for profile in self.profiles:
                response = client.submit_trace(
                    self.trace(profile), specs, name=profile.name, tags=("sweep",)
                )
                digests[profile.name] = str(response["digest"])
                job_ids.extend(str(job) for job in response["jobs"])
            # Wait on exactly the cells this sweep queued — a shared
            # server's other workload must not stall the sweep's clock.
            client.wait_for_jobs(job_ids, timeout=600.0)
            for profile in self.profiles:
                digest = digests[profile.name]
                results = client.results(digest)
                for spec in specs:
                    payload = results.get(spec)
                    cells.append(
                        {
                            "trace": profile.name,
                            "digest": digest,
                            "spec": spec,
                            "races": payload.get("race_count") if payload else None,
                            "events": payload.get("events") if payload else None,
                            "elapsed_ns": payload.get("elapsed_ns") if payload else None,
                            "attempts": payload.get("attempts") if payload else None,
                        }
                    )
        return {
            "config": {
                "scale": self.config.scale,
                "orders": list(self.config.orders),
                "max_profiles": self.config.max_profiles,
                "server": address,
            },
            "profiles": [profile.name for profile in self.profiles],
            "cells": cells,
        }

    def sweep(self) -> Dict[str, object]:
        """Run the full session sweep and return a JSON-serializable payload.

        Covers every (trace, order) pair with and without the analysis
        component (timing) plus the work metrics — the matrix behind
        Table 2 and Figures 6–9 — in one document.  This is what
        ``repro-experiments sweep --json`` emits and what the CI
        benchmark smoke job uploads as an artifact.  With
        ``config.server`` set the whole sweep is delegated to a running
        ``repro serve`` instance instead (:meth:`remote_sweep`).
        """
        if self.config.server:
            return self.remote_sweep(self.config.server)
        return {
            "config": {
                "scale": self.config.scale,
                "repetitions": self.config.repetitions,
                "orders": list(self.config.orders),
                "max_profiles": self.config.max_profiles,
            },
            "profiles": [profile.name for profile in self.profiles],
            "speedups": [
                sample.as_row()
                for with_analysis in (False, True)
                for sample in self.speedups(with_analysis)
            ],
            "work": [measurement.as_row() for measurement in self.work_measurements()],
        }
