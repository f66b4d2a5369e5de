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

from typing import Dict, List, Optional, Tuple

from ..bench.suites import work_case_name
from .reporting import ExperimentReport
from .runner import ExperimentConfig, SpeedupSample, SuiteRunner, case_work, median_seconds


def run(config: ExperimentConfig = ExperimentConfig(), runner: Optional[SuiteRunner] = None) -> ExperimentReport:
    """Run the scalability sweep behind Figure 10.

    Each point is one ``paper/figure10/<scenario>-t<k>`` case of the
    runner's paper suite (``config.events`` events, ``config.thread_counts``
    threads), timed like the Table-2 cells, and its VCWork/TCWork comes
    from the ``paper/work/<scenario>-t<k>/HB`` case beside it.  The two
    cases of a point are measured together, on one trace.
    """
    runner = runner or SuiteRunner(config)
    rows = []
    work_ratios: Dict[str, List[Tuple[int, float]]] = {}
    for case in runner.cases.values():
        if not case.name.startswith("paper/figure10/"):
            continue
        point = case.name.rsplit("/", 1)[1]
        result, work_result = runner.measured(case.name, work_case_name(point, "HB"))
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
        work = case_work(work_result)
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
        work_ratios.setdefault(scenario, []).append((num_threads, work.vc_over_tc))
    summary = {}
    for scenario, ratios in work_ratios.items():
        for threads, ratio in (ratios[0], ratios[-1]):
            summary[f"{scenario}: VCWork/TCWork at k={threads}"] = round(ratio, 2)
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
