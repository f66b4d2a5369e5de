"""Partial-order analyses: HB, SHB, MAZ, race detection and the graph oracle.

Construct an analysis directly for a one-off run
(``HBAnalysis(TreeClock, detect=True).run(trace)``), or go through
:mod:`repro.api` (``Session``, ``parse_spec("hb+tc+detect")``) to share
one event walk across many configurations; its ``ORDERS`` registry
resolves order names.
"""

from .detectors import RaceDetector, ReversiblePairDetector
from .engine import PartialOrderAnalysis
from .graph import GraphOrder
from .hb import HBAnalysis, compute_hb
from .maz import MAZAnalysis, compute_maz
from .races import detect_races, find_races, has_race
from .result import AnalysisResult, DetectionSummary, Race
from .shb import SHBAnalysis, compute_shb

__all__ = [
    "AnalysisResult",
    "DetectionSummary",
    "GraphOrder",
    "HBAnalysis",
    "MAZAnalysis",
    "PartialOrderAnalysis",
    "Race",
    "RaceDetector",
    "ReversiblePairDetector",
    "SHBAnalysis",
    "compute_hb",
    "compute_maz",
    "compute_shb",
    "detect_races",
    "find_races",
    "has_race",
]
