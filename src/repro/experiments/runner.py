"""Shared machinery for the experiment runners.

The paper's evaluation runs every benchmark trace through each of the
three partial orders with both clock data structures, with and without
the analysis component (Table 2, Figures 6 and 7), and separately
measures data-structure work (Figures 8 and 9) and scalability
(Figure 10).  :class:`ExperimentConfig` captures the knobs of all of
these (suite scale, repetitions, which partial orders to include, the
Figure-10 sweep) and :class:`SuiteRunner` caches the measured cases so
that several experiment runners share one measurement of each.

Every number comes from :mod:`repro.bench`, through the cases of
:func:`repro.bench.suites.paper_suite`.  The timed cells are the
``paper/table2/<profile>/<ORDER>`` cases: one four-spec session walk
(``<o>+vc``, ``<o>+tc``, ``<o>+vc+detect``, ``<o>+tc+detect``) per
(profile, order), measured with one warmup walk and then
``repetitions`` timed walks.  A cell's VC or TC time is the median of
that spec's timed walks.  The work cells are the counted
``paper/work/<profile>/<ORDER>`` cases (VTWork, VCWork and TCWork of
one walk per clock), which also record their trace's statistics
(Tables 1 and 3, Figure 7's sync%).  ``repro-bench run --suite paper``
measures the same cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Type

from ..analysis.engine import PartialOrderAnalysis
from ..api.registry import ORDERS
from ..bench.runner import BenchCaseResult, BenchConfig, Traces, median_iqr, run_suite
from ..bench.suites import (
    PAPER_ORDERS,
    BenchCase,
    paper_suite,
    table2_case_name,
    work_case_name,
)
from ..gen.scenarios import DEFAULT_THREAD_COUNTS
from ..gen.suite import BenchmarkProfile, default_suite
from ..metrics.work import WorkMeasurement
from ..trace.stats import TraceStatistics

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
    events:
        Events per Figure-10 scalability trace.
    thread_counts:
        Thread counts of the Figure-10 sweep.

    Raises :class:`ValueError` for a non-positive ``scale``, fewer than
    one repetition, profile, event or thread, or an unknown order.
    """

    scale: float = 1.0
    repetitions: int = 3
    orders: Sequence[str] = DEFAULT_ORDERS
    max_profiles: Optional[int] = None
    events: int = 10_000
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.max_profiles is not None and self.max_profiles < 1:
            raise ValueError("max_profiles must be at least 1")
        if self.events < 1:
            raise ValueError("events must be at least 1")
        if any(threads < 1 for threads in self.thread_counts):
            raise ValueError("threads must be at least 1")
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


def average_speedup(samples: Sequence[SpeedupSample]) -> float:
    """Arithmetic mean of per-trace speedups, as reported in Table 2."""
    if not samples:
        return 0.0
    return sum(sample.speedup for sample in samples) / len(samples)


def median_seconds(result: BenchCaseResult, spec: str) -> float:
    """One cell's time: the median of ``spec``'s timed walks, in seconds."""
    return median_iqr(result.sub[spec])[0] / 1e9


def case_work(result: BenchCaseResult) -> WorkMeasurement:
    """The work counts a ``paper/work/<workload>/<ORDER>`` case recorded."""
    _, _, workload, order = result.name.split("/")
    meta = result.meta
    return WorkMeasurement(
        trace_name=workload,
        partial_order=order,
        num_events=result.events,
        num_threads=int(meta["threads"]),  # type: ignore[call-overload]
        vt_work=int(meta["vt_work"]),  # type: ignore[call-overload]
        vc_work=int(meta["vc_work"]),  # type: ignore[call-overload]
        tc_work=int(meta["tc_work"]),  # type: ignore[call-overload]
    )


def case_statistics(result: BenchCaseResult) -> TraceStatistics:
    """The trace statistics a ``paper/work`` case recorded."""
    return TraceStatistics(**result.meta["stats"])  # type: ignore[arg-type]


class SuiteRunner:
    """Measures the cases of the paper suite once and caches them.

    :attr:`results` holds the measured cases by name; a case is measured
    the first time a table or figure asks for one of its cells.  Only
    :mod:`repro.bench` generates traces.  Each profile's trace is
    generated once, for the first of its cases, and kept for the rest.
    """

    def __init__(self, config: ExperimentConfig = ExperimentConfig()) -> None:
        self.config = config
        self.results: Dict[str, BenchCaseResult] = {}
        self._profiles: Optional[List[BenchmarkProfile]] = None
        self._cases: Optional[Dict[str, BenchCase]] = None
        self._traces: Traces = {}

    # -- suite materialization -------------------------------------------------------

    @property
    def profiles(self) -> List[BenchmarkProfile]:
        """The benchmark profiles selected by the configuration."""
        if self._profiles is None:
            self._profiles = default_suite(
                scale=self.config.scale, max_profiles=self.config.max_profiles
            )
        return self._profiles

    @property
    def cases(self) -> Dict[str, BenchCase]:
        """The ``paper`` suite's cases for the configuration, by name.

        Every order has its cases, so Figure 7 (always HB) and Figure 8
        (HB) work whatever :attr:`ExperimentConfig.orders` selects for the
        tables.
        """
        if self._cases is None:
            self._cases = {
                case.name: case
                for case in paper_suite(
                    scale=self.config.scale,
                    max_profiles=self.config.max_profiles,
                    events=self.config.events,
                    thread_counts=self.config.thread_counts,
                )
            }
        return self._cases

    def measured(self, *names: str) -> List[BenchCaseResult]:
        """The results of the cases ``names``; those not yet measured run now, together.

        Cases run together share their workload's trace.  Profile traces
        are also kept for the profile's later cases; a Figure-10 point's
        trace lives only while its cases run.
        """
        todo = [self.cases[name] for name in names if name not in self.results]
        kept = self._traces if all("profile" in case.params for case in todo) else None
        config = BenchConfig(warmup=1, repeats=self.config.repetitions)
        for result in run_suite(todo, config, traces=kept):
            self.results[result.name] = result
        return [self.results[name] for name in names]

    # -- per-trace measurements ---------------------------------------------------------

    def statistics(self) -> List[TraceStatistics]:
        """Per-profile trace statistics (Tables 1 and 3), from the HB work cases."""
        names = [work_case_name(profile.name, "HB") for profile in self.profiles]
        return [case_statistics(result) for result in self.measured(*names)]

    def result(self, profile: BenchmarkProfile, order: str) -> BenchCaseResult:
        """The timed ``paper/table2`` case of one (profile, order) pair."""
        return self.measured(table2_case_name(profile.name, order))[0]

    def speedup(self, profile: BenchmarkProfile, order: str, with_analysis: bool) -> SpeedupSample:
        """The VC-vs-TC timing comparison of one cell (PO or PO + analysis)."""
        result = self.result(profile, order)
        suffix = "+detect" if with_analysis else ""
        return SpeedupSample(
            trace_name=profile.name,
            partial_order=order.upper(),
            with_analysis=with_analysis,
            num_events=result.events,
            num_threads=int(result.meta["threads"]),  # type: ignore[call-overload]
            vc_seconds=median_seconds(result, f"{order.lower()}+vc{suffix}"),
            tc_seconds=median_seconds(result, f"{order.lower()}+tc{suffix}"),
        )

    def work_measurement(self, profile: BenchmarkProfile, order: str) -> WorkMeasurement:
        """The work counts of one (profile, order) pair: its ``paper/work`` case."""
        return case_work(self.measured(work_case_name(profile.name, order))[0])
