"""Work metrics for comparing clock data structures.

The work-optimality measurements of :mod:`repro.metrics.work`
(VTWork / VCWork / TCWork, the paper's Figures 8 and 9).  Timing lives in
:mod:`repro.bench`, the one timer.
"""

from .work import (
    TC_OPTIMALITY_FACTOR,
    WorkMeasurement,
    is_vt_optimal,
    measure_work,
)

__all__ = [
    "TC_OPTIMALITY_FACTOR",
    "WorkMeasurement",
    "is_vt_optimal",
    "measure_work",
]
