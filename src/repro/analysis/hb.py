"""The happens-before (HB) analysis (Algorithms 1 and 3 of the paper).

HB is the smallest partial order containing the thread order and ordering
every lock release before every later acquire of the same lock.  The
streaming algorithm keeps one clock per thread and one per lock:

* ``acquire(t, ℓ)`` — ``C_t.Join(L_ℓ)``
* ``release(t, ℓ)`` — ``L_ℓ.MonotoneCopy(C_t)``

(with vector clocks the monotone copy is a plain copy; Lemma 2 guarantees
the monotonicity precondition).  These are the engine's shared
:func:`~repro.analysis.engine.acquire_rule` and
:func:`~repro.analysis.engine.release_rule`.  Read/write events only
matter for the optional race-detection component.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..trace.event import OpKind
from ..trace.trace import Trace
from .detectors import RaceDetector
from .engine import EventHandler, PartialOrderAnalysis, acquire_rule, release_rule
from .result import AnalysisResult, DetectionSummary


class HBAnalysis(PartialOrderAnalysis):
    """Streaming computation of the HB partial order."""

    PARTIAL_ORDER = "HB"

    def _reset_state(self) -> None:
        super()._reset_state()
        self._detector: Optional[RaceDetector] = (
            RaceDetector(keep_races=self.keep_races, on_race=self.on_race, locate=self.locate)
            if self.detect
            else None
        )

    _on_acquire = acquire_rule
    _on_release = release_rule

    def _dispatch_table(self) -> Dict[OpKind, EventHandler]:
        # Reads and writes only matter to the detection component: bind
        # its bound methods directly (or nothing) so the hot loop never
        # re-tests ``detector is not None`` per event.
        table = super()._dispatch_table()
        detector = self._detector
        table[OpKind.READ] = detector.on_read if detector is not None else None
        table[OpKind.WRITE] = detector.on_write if detector is not None else None
        return table

    def _detection_summary(self) -> Optional[DetectionSummary]:
        return self._detector.summary if self._detector is not None else None

    def _snapshot_extra(self) -> Dict[str, object]:
        extra = super()._snapshot_extra()
        if self._detector is not None:
            extra["detector"] = self._detector.snapshot()
        return extra

    def _restore_extra(self, extra: Dict[str, object]) -> None:
        super()._restore_extra(extra)
        if self._detector is not None:
            detector_state = extra.get("detector")
            if detector_state is None:
                raise ValueError("snapshot was taken without detect=True")
            self._detector.restore(detector_state)  # type: ignore[arg-type]


def compute_hb(trace: Trace, clock_class=None, **kwargs) -> AnalysisResult:
    """Convenience wrapper: run :class:`HBAnalysis` over ``trace``.

    Keyword arguments are forwarded to :class:`HBAnalysis`; ``clock_class``
    defaults to the tree clock.
    """
    from ..clocks.tree_clock import TreeClock

    analysis = HBAnalysis(clock_class or TreeClock, **kwargs)
    return analysis.run(trace)
