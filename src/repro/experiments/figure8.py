"""Figure 8 — data-structure work relative to the inherent vt-work (HB).

The paper's Figure 8 plots, per benchmark trace, the ratio
``VCWork(σ)/VTWork(σ)`` (x-axis) against ``TCWork(σ)/VTWork(σ)``
(y-axis) for the HB computation.  The key observations are that the
tree-clock ratio stays bounded by 3 (Theorem 1) — with some traces
pushing close to that bound — while the vector-clock ratio grows to
nearly 100.

This runner reproduces the underlying series over the synthetic suite.
Because the work metrics count data-structure entry updates, they are
machine- and language-independent and reproduce the paper's figure
faithfully even in pure Python.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.work import TC_OPTIMALITY_FACTOR
from .reporting import ExperimentReport
from .runner import ExperimentConfig, SuiteRunner


def run(config: ExperimentConfig = ExperimentConfig(), runner: Optional[SuiteRunner] = None) -> ExperimentReport:
    """Compute the work-ratio series behind Figure 8."""
    runner = runner or SuiteRunner(config)
    rows = []
    max_tc_ratio = 0.0
    max_vc_ratio = 0.0
    for profile in runner.profiles:
        measurement = runner.work_measurement(profile, "HB")
        rows.append(
            [
                profile.name,
                measurement.num_threads,
                measurement.vt_work,
                measurement.vc_work,
                measurement.tc_work,
                round(measurement.vc_over_vt, 3),
                round(measurement.tc_over_vt, 3),
            ]
        )
        max_tc_ratio = max(max_tc_ratio, measurement.tc_over_vt)
        max_vc_ratio = max(max_vc_ratio, measurement.vc_over_vt)
    rows.sort(key=lambda row: row[5])
    return ExperimentReport(
        experiment="figure8",
        title="VCWork/VTWork vs TCWork/VTWork for the HB computation",
        headers=["Trace", "Threads", "VTWork", "VCWork", "TCWork", "VCWork/VTWork", "TCWork/VTWork"],
        rows=rows,
        summary={
            "max TCWork/VTWork": round(max_tc_ratio, 3),
            "max VCWork/VTWork": round(max_vc_ratio, 3),
            "Theorem-1 bound on TCWork/VTWork": TC_OPTIMALITY_FACTOR,
        },
        notes=[
            "Paper: TCWork/VTWork stays below 3 on every trace (some reach ≈2.99) while "
            "VCWork/VTWork grows to nearly 100.",
        ],
    )
