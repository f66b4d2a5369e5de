"""Work metrics: ``VTWork``, ``VCWork`` and ``TCWork`` (Section 4, Figures 8/9).

The paper defines the *vector-time work* of a trace,

.. math::

    VTWork(σ) = \\sum_{i} \\sum_{j} |\\{t : C^{i-1}_j(t) \\ne C^i_j(t)\\}|,

i.e. the total number of vector-time entries that change while the
streaming algorithm processes the trace.  This quantity is independent of
the data structure used to store vector times and lower-bounds the work
any such data structure must perform.  ``VCWork`` and ``TCWork`` are the
corresponding *actual* number of entries processed when the algorithm
runs with vector clocks and tree clocks respectively.

Theorem 1 states that tree clocks are *vt-optimal*:
``TCWork(σ) ≤ 3·VTWork(σ)`` on every trace, whereas the ratio
``VCWork(σ)/VTWork(σ)`` can grow up to the number of threads.

The implementation derives all three quantities from the
:class:`~repro.clocks.WorkCounter` instrumentation of the clocks:
``entries_processed`` gives VCWork/TCWork, and ``entries_updated`` (which
is identical for both runs because they compute the same vector times)
gives VTWork.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from ..analysis.engine import PartialOrderAnalysis
from ..clocks.tree_clock import TreeClock
from ..clocks.vector_clock import VectorClock
from ..trace.trace import Trace

#: The factor of Theorem 1: tree clocks never process more than this many
#: entries per entry that must change.
TC_OPTIMALITY_FACTOR = 3


@dataclass(frozen=True, slots=True)
class WorkMeasurement:
    """Work metrics of one partial-order computation over one trace."""

    trace_name: str
    partial_order: str
    num_events: int
    num_threads: int
    vt_work: int
    vc_work: int
    tc_work: int

    @property
    def vc_over_vt(self) -> float:
        """``VCWork / VTWork`` — how much redundant work vector clocks do."""
        return self.vc_work / self.vt_work if self.vt_work else 0.0

    @property
    def tc_over_vt(self) -> float:
        """``TCWork / VTWork`` — bounded by 3 per Theorem 1."""
        return self.tc_work / self.vt_work if self.vt_work else 0.0

    @property
    def vc_over_tc(self) -> float:
        """``VCWork / TCWork`` — the work advantage of tree clocks (Figure 9)."""
        return self.vc_work / self.tc_work if self.tc_work else 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for tabular reports."""
        return {
            "trace": self.trace_name,
            "order": self.partial_order,
            "events": self.num_events,
            "threads": self.num_threads,
            "VTWork": self.vt_work,
            "VCWork": self.vc_work,
            "TCWork": self.tc_work,
            "VCWork/VTWork": round(self.vc_over_vt, 3),
            "TCWork/VTWork": round(self.tc_over_vt, 3),
            "VCWork/TCWork": round(self.vc_over_tc, 3),
        }


def measure_work(
    trace: Trace,
    analysis_class: Type[PartialOrderAnalysis],
    detect: bool = False,
) -> WorkMeasurement:
    """Run ``analysis_class`` with both clock data structures and collect work metrics.

    Two whole-trace runs of ``analysis_class`` with work counting
    enabled, one with vector clocks and one with tree clocks, so any
    class works, the deep-copy ablations included.  The two runs compute
    the same vector times, so their ``entries_updated`` counts agree and
    give ``VTWork``; their ``entries_processed`` counts give ``VCWork``
    and ``TCWork``.
    """
    vc_result = analysis_class(VectorClock, count_work=True, detect=detect).run(trace)
    tc_result = analysis_class(TreeClock, count_work=True, detect=detect).run(trace)
    assert vc_result.work is not None and tc_result.work is not None
    vt_work = vc_result.work.entries_updated
    if tc_result.work.entries_updated != vt_work:
        raise AssertionError(
            "tree clocks and vector clocks disagree on the number of entry updates "
            f"({tc_result.work.entries_updated} vs {vt_work}) — this indicates a bug"
        )
    return WorkMeasurement(
        trace_name=trace.name,
        partial_order=analysis_class.PARTIAL_ORDER,
        num_events=len(trace),
        num_threads=trace.num_threads,
        vt_work=vt_work,
        vc_work=vc_result.work.entries_processed,
        tc_work=tc_result.work.entries_processed,
    )


def is_vt_optimal(measurement: WorkMeasurement, factor: float = TC_OPTIMALITY_FACTOR) -> bool:
    """Whether the tree-clock work respects the Theorem-1 bound on this trace.

    A small additive slack of one processed entry per event is allowed to
    account for the constant-time root check of early-returning joins,
    which the paper's bound absorbs in its constant.
    """
    return measurement.tc_work <= factor * measurement.vt_work + measurement.num_events
