"""Figure 9 — histogram of the work advantage of tree clocks.

The paper's Figure 9 shows, for each partial order (MAZ, SHB, HB), the
histogram over benchmark traces of the ratio ``VCWork(σ)/TCWork(σ)`` —
how many fewer data-structure entries tree clocks touch compared to
vector clocks.  The ratios reach up to ≈55×, demonstrating the source of
the observed speedups.

This runner reproduces the three histograms over the synthetic suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .reporting import ExperimentReport, histogram_rows
from .runner import ExperimentConfig, SuiteRunner

#: Histogram bin edges, matching the granularity of the paper's figure.
BIN_EDGES = (1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 80.0)


def run(config: ExperimentConfig = ExperimentConfig(), runner: Optional[SuiteRunner] = None) -> ExperimentReport:
    """Compute the VCWork/TCWork histograms behind Figure 9."""
    runner = runner or SuiteRunner(config)
    rows = []
    summary: Dict[str, object] = {}
    for order in config.orders:
        ratios: List[float] = [
            runner.work_measurement(profile, order).vc_over_tc for profile in runner.profiles
        ]
        for bucket_row in histogram_rows(ratios, BIN_EDGES):
            rows.append([order.upper()] + bucket_row)
        if ratios:
            summary[f"{order.upper()} max VCWork/TCWork"] = round(max(ratios), 2)
            summary[f"{order.upper()} mean VCWork/TCWork"] = round(sum(ratios) / len(ratios), 2)
    return ExperimentReport(
        experiment="figure9",
        title="Histogram of VCWork/TCWork per partial order",
        headers=["Order", "VCWork/TCWork bin", "Traces", "Bar"],
        rows=rows,
        summary=summary,
        notes=[
            "Paper: the ratio concentrates between 1 and 10 with a long tail reaching ≈55×; "
            "larger ratios appear on traces with many threads.",
        ],
    )
