"""Figure 10 — controlled scalability experiments.

The paper's Figure 10 compares tree clocks and vector clocks on four
synthetic communication patterns (single lock; fifty locks with skewed
thread activity; star topology; pairwise communication) while the number
of threads grows from 10 to 360 and the trace length stays fixed.  The
headline observations are:

* single lock — both data structures scale linearly with the thread
  count; tree clocks keep a constant-factor advantage in entry updates;
* fifty locks, skewed — similar, with a slightly smaller advantage;
* star topology — vector-clock time grows with the thread count while
  tree-clock time stays (nearly) constant, because each join touches only
  a constant number of tree-clock entries;
* pairwise communication — the worst case for tree clocks, where their
  extra bookkeeping makes them somewhat slower than vector clocks.

This runner reproduces the sweep, reporting both wall-clock times and the
machine-independent work counts per scenario and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..bench.runner import BenchConfig, run_suite
from ..bench.suites import paper_suite, work_case_name
from ..gen.scenarios import DEFAULT_THREAD_COUNTS, SCENARIOS
from .reporting import ExperimentReport
from .runner import ExperimentConfig, SpeedupSample, case_work, median_seconds


@dataclass(frozen=True, slots=True)
class ScalabilityConfig:
    """Knobs of the Figure-10 sweep (timed ``ExperimentConfig.repetitions`` times).

    Raises :class:`ValueError` for a thread count or ``num_events``
    below 1.
    """

    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS
    num_events: int = 10_000
    scenarios: Sequence[str] = tuple(SCENARIOS)
    seed: int = 0

    def __post_init__(self) -> None:
        if any(threads < 1 for threads in self.thread_counts):
            raise ValueError("threads must be at least 1")
        if self.num_events < 1:
            raise ValueError("events must be at least 1")


def run(
    config: ExperimentConfig = ExperimentConfig(),
    scalability: ScalabilityConfig = ScalabilityConfig(),
) -> ExperimentReport:
    """Run the scalability sweep behind Figure 10.

    Each point is one ``paper/figure10/<scenario>-t<k>`` bench case of
    :func:`repro.bench.suites.paper_suite`, timed like the Table-2 cells,
    and its VCWork/TCWork comes from the ``paper/work/<scenario>-t<k>/HB``
    case beside it.
    """
    cases = paper_suite(
        orders=(),
        events=scalability.num_events,
        scenarios=scalability.scenarios,
        thread_counts=scalability.thread_counts,
        seed=scalability.seed,
    )
    results = {
        result.name: result
        for result in run_suite(cases, BenchConfig(warmup=1, repeats=config.repetitions))
    }
    rows = []
    work_ratios: Dict[str, List[float]] = {}
    for case in cases:
        if case.kind != "session":
            continue
        result = results[case.name]
        scenario = str(case.params["scenario"])
        num_threads = int(case.params["threads"])  # type: ignore[call-overload]
        timing = SpeedupSample(
            trace_name=case.name,
            partial_order="HB",
            with_analysis=False,
            num_events=result.events,
            num_threads=num_threads,
            vc_seconds=median_seconds(result, "hb+vc"),
            tc_seconds=median_seconds(result, "hb+tc"),
        )
        work = case_work(results[work_case_name(f"{scenario}-t{num_threads}", "HB")])
        rows.append(
            [
                scenario,
                num_threads,
                result.events,
                round(timing.vc_seconds, 4),
                round(timing.tc_seconds, 4),
                round(timing.speedup, 3),
                round(work.vc_over_tc, 2),
            ]
        )
        work_ratios.setdefault(scenario, []).append(work.vc_over_tc)
    summary = {}
    for scenario, ratios in work_ratios.items():
        summary[f"{scenario}: VCWork/TCWork at k={scalability.thread_counts[0]}"] = round(
            ratios[0], 2
        )
        summary[f"{scenario}: VCWork/TCWork at k={scalability.thread_counts[-1]}"] = round(
            ratios[-1], 2
        )
    return ExperimentReport(
        experiment="figure10",
        title="Scalability with the number of threads (HB, four lock topologies)",
        headers=["Scenario", "Threads", "Events", "VC (s)", "TC (s)", "VC/TC time", "VCWork/TCWork"],
        rows=rows,
        summary=summary,
        notes=[
            "Paper uses 10M-event traces and 10-360 threads; events are scaled down here, "
            "which mainly affects the pairwise scenario (locks are reused less).",
            "The star topology is the paper's showcase: the tree-clock cost per event stays "
            "constant as the thread count grows, while the vector-clock cost grows linearly.",
        ],
    )
