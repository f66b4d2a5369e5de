"""Figure 7 — HB+analysis speedup as a function of synchronization density.

The paper's Figure 7 plots, for every trace whose total analysis time is
not negligible, the speedup of the full HB analysis (partial order plus
race detection) against the percentage of synchronization events in the
trace, and observes that the speedup grows with the synchronization
fraction: HB only performs clock work at acquire/release events, so the
more of those a trace has, the more the clock data structure matters.

This runner reproduces the series and reports the correlation between
the two quantities.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional

from .reporting import ExperimentReport
from .runner import ExperimentConfig, SuiteRunner


def _rank(values: List[float]) -> List[float]:
    """Ranks from 0; tied values share the mean of the positions they span."""
    ordered = sorted(values)
    return [(bisect_left(ordered, value) + bisect_right(ordered, value) - 1) / 2 for value in values]


def spearman_correlation(xs: List[float], ys: List[float]) -> float:
    """Spearman rank correlation (0.0 when undefined)."""
    if len(xs) < 2 or len(xs) != len(ys):
        return 0.0
    rank_x, rank_y = _rank(xs), _rank(ys)
    mean_x = sum(rank_x) / len(rank_x)
    mean_y = sum(rank_y) / len(rank_y)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y))
    var_x = sum((a - mean_x) ** 2 for a in rank_x)
    var_y = sum((b - mean_y) ** 2 for b in rank_y)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def run(config: ExperimentConfig = ExperimentConfig(), runner: Optional[SuiteRunner] = None) -> ExperimentReport:
    """Compute the speedup-vs-sync-fraction series behind Figure 7."""
    runner = runner or SuiteRunner(config)
    rows = []
    sync_fractions: List[float] = []
    speedups: List[float] = []
    for profile, stats in zip(runner.profiles, runner.statistics()):
        sample = runner.speedup(profile, "HB", with_analysis=True)
        sync_percent = 100.0 * stats.sync_fraction
        rows.append(
            [
                profile.name,
                stats.num_threads,
                round(sync_percent, 1),
                round(sample.vc_seconds, 4),
                round(sample.tc_seconds, 4),
                round(sample.speedup, 3),
            ]
        )
        sync_fractions.append(sync_percent)
        speedups.append(sample.speedup)
    rows.sort(key=lambda row: row[2])
    correlation = spearman_correlation(sync_fractions, speedups)
    return ExperimentReport(
        experiment="figure7",
        title="HB+analysis speedup vs percentage of synchronization events",
        headers=["Trace", "Threads", "Sync%", "VC (s)", "TC (s)", "VC/TC"],
        rows=rows,
        summary={"Spearman correlation (sync% vs speedup)": round(correlation, 3)},
        notes=[
            "The paper observes the speedup trend increasing with the fraction of "
            "synchronization events (and with the number of threads).",
        ],
    )
