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
"""

from __future__ import annotations

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
    headers = ["Configuration"] + [order.upper() for order in config.orders]
    return ExperimentReport(
        experiment="table2",
        title="Average speedup of tree clocks over vector clocks",
        headers=headers,
        rows=rows,
        summary=summary,
        notes=[
            "Speedup = VC time / TC time, averaged over traces (arithmetic mean as in the paper).",
            "Interpreted-Python constant factors shrink the wall-clock advantage of tree clocks "
            "relative to the paper's Java implementation; see Figure 9 for the machine-independent "
            "work comparison.",
        ],
    )
