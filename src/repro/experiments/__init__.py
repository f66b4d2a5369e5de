"""Experiment runners reproducing the paper's tables and figures.

Every module exposes a ``run(config, runner) -> ExperimentReport``
function, and one :class:`SuiteRunner` can serve them all; the mapping
from paper artifact to module is:

========  ==========================================================
Artifact  Module
========  ==========================================================
Table 1   :mod:`repro.experiments.table1`
Table 2   :mod:`repro.experiments.table2`
Table 3   :mod:`repro.experiments.table3`
Figure 6  :mod:`repro.experiments.figure6`
Figure 7  :mod:`repro.experiments.figure7`
Figure 8  :mod:`repro.experiments.figure8`
Figure 9  :mod:`repro.experiments.figure9`
Figure 10 :mod:`repro.experiments.figure10`
========  ==========================================================
"""

from .reporting import ExperimentReport, format_table, histogram_rows
from .runner import DEFAULT_ORDERS, ExperimentConfig, SpeedupSample, SuiteRunner, average_speedup

__all__ = [
    "DEFAULT_ORDERS",
    "ExperimentConfig",
    "ExperimentReport",
    "SpeedupSample",
    "SuiteRunner",
    "average_speedup",
    "format_table",
    "histogram_rows",
]
