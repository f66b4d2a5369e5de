"""Table 2 — average speedup of tree clocks over vector clocks.

The paper's Table 2 reports, for MAZ, SHB and HB, the average per-trace
speedup of tree clocks over vector clocks, once for computing the partial
order alone (PO) and once including the analysis component
(PO + Analysis).  The paper's numbers are PO: 2.02 / 2.66 / 2.97 and
PO+Analysis: 1.49 / 1.80 / 1.11 for MAZ / SHB / HB respectively.

This runner reproduces the same 2×3 table over the synthetic suite.  In
pure Python the per-node constant of tree clocks is higher than in the
paper's Java implementation, so the absolute speedups are smaller (and
can drop below 1 on small-thread-count traces); the work-based
counterpart of this comparison is Figure 9.

Two more rows decompose the PO speedup of each cell.  The work ratio
``VCWork / TCWork`` comes from the cell's counted ``paper/work`` case.
The per-entry cost ratio is that work ratio divided by the PO speedup,
which is TC's time per processed entry over VC's.  The speedup is
their quotient, so a cell wins when tree clocks save more entries than
each entry costs them extra.  Every row is an arithmetic mean over
traces.
"""

from __future__ import annotations

from operator import truediv
from statistics import fmean
from typing import Optional

from .reporting import ExperimentReport
from .runner import ExperimentConfig, SuiteRunner, average_speedup

#: The averages reported by the paper, for side-by-side comparison.
PAPER_SPEEDUPS = {
    ("MAZ", False): 2.02,
    ("SHB", False): 2.66,
    ("HB", False): 2.97,
    ("MAZ", True): 1.49,
    ("SHB", True): 1.80,
    ("HB", True): 1.11,
}


def run(config: ExperimentConfig = ExperimentConfig(), runner: Optional[SuiteRunner] = None) -> ExperimentReport:
    """Compute the Table-2 style average speedups over the benchmark suite."""
    runner = runner or SuiteRunner(config)
    rows = []
    summary = {}
    for with_analysis in (False, True):
        label = "PO + Analysis" if with_analysis else "PO"
        row = [label]
        for order in config.orders:
            samples = [
                runner.speedup(profile, order, with_analysis) for profile in runner.profiles
            ]
            measured = average_speedup(samples)
            row.append(round(measured, 2))
            paper = PAPER_SPEEDUPS.get((order.upper(), with_analysis))
            if paper is not None:
                summary[f"{order.upper()} {label} (paper)"] = paper
        rows.append(row)
    work_row = ["Work ratio (VCWork / TCWork)"]
    cost_row = ["Per-entry cost ratio (TC / VC)"]
    for order in config.orders:
        work_ratios = [
            runner.work_measurement(profile, order).vc_over_tc for profile in runner.profiles
        ]
        speedups = [runner.speedup(profile, order, False).speedup for profile in runner.profiles]
        work_row.append(round(fmean(work_ratios), 2))
        cost_row.append(round(fmean(map(truediv, work_ratios, speedups)), 2))
    rows.extend((work_row, cost_row))
    headers = ["Configuration"] + [order.upper() for order in config.orders]
    return ExperimentReport(
        experiment="table2",
        title="Average speedup of tree clocks over vector clocks",
        headers=headers,
        rows=rows,
        summary=summary,
        notes=[
            "Speedup = VC time / TC time, averaged over traces (arithmetic mean as in the paper).",
            "Work ratio = VCWork / TCWork of each cell's counted walk; per-entry cost ratio = "
            "work ratio / PO speedup = TC time per processed entry / VC's; both averaged over "
            "traces.  PO speedup = work ratio / cost ratio for each trace.",
            "Interpreted-Python constant factors shrink the wall-clock advantage of tree clocks "
            "relative to the paper's Java implementation; see Figure 9 for the machine-independent "
            "work comparison.",
        ],
    )
