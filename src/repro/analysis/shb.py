"""The schedulable-happens-before (SHB) analysis (Algorithm 4 of the paper).

SHB strengthens HB by additionally ordering every read after the last
write of the same variable (``lw(r) ≤ r``).  The streaming algorithm
keeps, besides the thread and lock clocks, one last-write clock ``LW_x``
per variable:

* ``acquire(t, ℓ)`` — ``C_t.Join(L_ℓ)``
* ``release(t, ℓ)`` — ``L_ℓ.MonotoneCopy(C_t)``
* ``read(t, x)``    — ``C_t.Join(LW_x)``
* ``write(t, x)``   — ``LW_x.CopyCheckMonotone(C_t)``

The write rule is the interesting one for tree clocks: the copy is not
guaranteed to be monotone, but checking monotonicity costs O(1), and the
non-monotone case corresponds exactly to a write-read race, so deep
copies are rare in practice (Section 5.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..clocks.base import Clock
from ..trace.event import Event, OpKind
from ..trace.trace import Trace
from .detectors import RaceDetector
from .engine import EventHandler, PartialOrderAnalysis
from .result import AnalysisResult, DetectionSummary
from .serial import decode_key, encode_clock_map


class SHBAnalysis(PartialOrderAnalysis):
    """Streaming computation of the SHB partial order."""

    PARTIAL_ORDER = "SHB"

    def _reset_state(self) -> None:
        super()._reset_state()
        self._last_write_clocks: Dict[object, Clock] = {}
        self._detector: Optional[RaceDetector] = (
            RaceDetector(keep_races=self.keep_races, on_race=self.on_race, locate=self.locate)
            if self.detect
            else None
        )

    def last_write_clock(self, variable: object) -> Clock:
        """The clock ``LW_x`` of the latest write to ``variable``."""
        clock = self._last_write_clocks.get(variable)
        if clock is None:
            clock = self._new_clock(owner=None)
            self._last_write_clocks[variable] = clock
        return clock

    def _on_acquire(self, event: Event, clock: Clock) -> None:
        clock.join(self.clock_of_lock(event.target))

    def _on_release(self, event: Event, clock: Clock) -> None:
        self.clock_of_lock(event.target).monotone_copy(clock)

    def _on_read(self, event: Event, clock: Clock) -> None:
        clock.join(self.last_write_clock(event.target))

    def _on_read_detect(self, event: Event, clock: Clock) -> None:
        self._detector.on_read(event, clock)  # type: ignore[union-attr]
        clock.join(self.last_write_clock(event.target))

    def _on_write(self, event: Event, clock: Clock) -> None:
        self.last_write_clock(event.target).copy_check_monotone(clock)

    def _on_write_detect(self, event: Event, clock: Clock) -> None:
        self._detector.on_write(event, clock)  # type: ignore[union-attr]
        self.last_write_clock(event.target).copy_check_monotone(clock)

    def _dispatch_table(self) -> Dict[OpKind, EventHandler]:
        # The detect/no-detect decision is per run, not per event: the
        # table binds the variant that already knows the answer.
        table = super()._dispatch_table()
        if self._detector is not None:
            table[OpKind.READ] = self._on_read_detect
            table[OpKind.WRITE] = self._on_write_detect
        return table

    def _detection_summary(self) -> Optional[DetectionSummary]:
        return self._detector.summary if self._detector is not None else None

    def _snapshot_extra(self) -> Dict[str, object]:
        extra = super()._snapshot_extra()
        extra["writes"] = encode_clock_map(self._last_write_clocks)
        if self._detector is not None:
            extra["detector"] = self._detector.snapshot()
        return extra

    def _restore_extra(self, extra: Dict[str, object]) -> None:
        super()._restore_extra(extra)
        for encoded, snapshot in extra["writes"]:  # type: ignore[union-attr]
            self.last_write_clock(decode_key(encoded)).restore(snapshot)
        if self._detector is not None:
            detector_state = extra.get("detector")
            if detector_state is None:
                raise ValueError("snapshot was taken without detect=True")
            self._detector.restore(detector_state)  # type: ignore[arg-type]


def compute_shb(trace: Trace, clock_class=None, **kwargs) -> AnalysisResult:
    """Convenience wrapper: run :class:`SHBAnalysis` over ``trace``."""
    from ..clocks.tree_clock import TreeClock

    analysis = SHBAnalysis(clock_class or TreeClock, **kwargs)
    return analysis.run(trace)
