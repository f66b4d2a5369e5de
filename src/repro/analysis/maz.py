"""The Mazurkiewicz (MAZ) partial order analysis (Algorithm 5 of the paper).

MAZ orders, in addition to HB, every pair of conflicting events in trace
order.  The streaming algorithm keeps, besides the thread and lock
clocks, a last-write clock ``LW_x`` per variable, a last-read clock
``R_{t,x}`` per thread/variable pair, and the set ``LRDs_x`` of threads
that have read ``x`` since its latest write:

* ``acquire(t, ℓ)`` — ``C_t.Join(L_ℓ)``
* ``release(t, ℓ)`` — ``L_ℓ.MonotoneCopy(C_t)``
* ``read(t, x)``    — ``C_t.Join(LW_x)``; ``R_{t,x}.MonotoneCopy(C_t)``;
  ``LRDs_x ← LRDs_x ∪ {t}``
* ``write(t, x)``   — ``C_t.Join(LW_x)``; ``C_t.Join(R_{t',x})`` for every
  ``t' ∈ LRDs_x``; ``LW_x.MonotoneCopy(C_t)``; ``LRDs_x ← ∅``

Only the *first* read-to-write ordering per reader is materialized; later
write-to-write orderings imply the rest transitively, which keeps the
total cost at O(n·k) like HB and SHB.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..clocks.base import Clock
from ..trace.event import Event
from ..trace.trace import Trace
from .detectors import ReversiblePairDetector
from .engine import PartialOrderAnalysis
from .result import AnalysisResult, DetectionSummary
from .serial import decode_key, encode_clock_map, encode_key


class MAZAnalysis(PartialOrderAnalysis):
    """Streaming computation of the Mazurkiewicz partial order."""

    PARTIAL_ORDER = "MAZ"

    def _reset_state(self) -> None:
        super()._reset_state()
        self._last_write_clocks: Dict[object, Clock] = {}
        self._last_read_clocks: Dict[Tuple[int, object], Clock] = {}
        self._readers_since_write: Dict[object, Set[int]] = {}
        self._detector: Optional[ReversiblePairDetector] = (
            ReversiblePairDetector(
                keep_races=self.keep_races, on_race=self.on_race, locate=self.locate
            )
            if self.detect
            else None
        )

    # -- auxiliary clock accessors -----------------------------------------------------

    def last_write_clock(self, variable: object) -> Clock:
        """The clock ``LW_x`` of the latest write to ``variable``."""
        clock = self._last_write_clocks.get(variable)
        if clock is None:
            clock = self._new_clock(owner=None)
            self._last_write_clocks[variable] = clock
        return clock

    def last_read_clock(self, tid: int, variable: object) -> Clock:
        """The clock ``R_{t,x}`` of the latest read of ``variable`` by ``tid``."""
        key = (tid, variable)
        clock = self._last_read_clocks.get(key)
        if clock is None:
            clock = self._new_clock(owner=None)
            self._last_read_clocks[key] = clock
        return clock

    def readers_since_write(self, variable: object) -> Set[int]:
        """The set ``LRDs_x`` of threads that read ``variable`` since its last write."""
        readers = self._readers_since_write.get(variable)
        if readers is None:
            readers = set()
            self._readers_since_write[variable] = readers
        return readers

    # -- event rules ----------------------------------------------------------------------

    def _on_acquire(self, event: Event, clock: Clock) -> None:
        clock.join(self.clock_of_lock(event.target))

    def _on_release(self, event: Event, clock: Clock) -> None:
        self.clock_of_lock(event.target).monotone_copy(clock)

    def _on_read(self, event: Event, clock: Clock) -> None:
        detector = self._detector
        if detector is not None:
            detector.on_access(event, clock)
        variable = event.target
        clock.join(self.last_write_clock(variable))
        self.last_read_clock(event.tid, variable).monotone_copy(clock)
        self.readers_since_write(variable).add(event.tid)
        if detector is not None:
            detector.after_access(event, clock)

    def _on_write(self, event: Event, clock: Clock) -> None:
        detector = self._detector
        if detector is not None:
            detector.on_access(event, clock)
        variable = event.target
        clock.join(self.last_write_clock(variable))
        readers = self.readers_since_write(variable)
        # Readers join in tid order.  A set's own order depends on its
        # hash-table history, which a restored checkpoint cannot rebuild,
        # and the join order shapes the tree clocks and their work.
        for reader_tid in sorted(readers):
            clock.join(self.last_read_clock(reader_tid, variable))
        self.last_write_clock(variable).monotone_copy(clock)
        readers.clear()
        if detector is not None:
            detector.after_access(event, clock)

    def _detection_summary(self) -> Optional[DetectionSummary]:
        return self._detector.summary if self._detector is not None else None

    def _snapshot_extra(self) -> Dict[str, object]:
        extra = super()._snapshot_extra()
        extra["writes"] = encode_clock_map(self._last_write_clocks)
        extra["reads"] = [
            [tid, encode_key(variable), clock.snapshot()]
            for (tid, variable), clock in self._last_read_clocks.items()
        ]
        extra["readers"] = [
            [encode_key(variable), sorted(tids)]
            for variable, tids in self._readers_since_write.items()
        ]
        if self._detector is not None:
            extra["detector"] = self._detector.snapshot()
        return extra

    def _restore_extra(self, extra: Dict[str, object]) -> None:
        super()._restore_extra(extra)
        for encoded, snapshot in extra["writes"]:  # type: ignore[union-attr]
            self.last_write_clock(decode_key(encoded)).restore(snapshot)
        for tid, encoded, snapshot in extra["reads"]:  # type: ignore[union-attr]
            self.last_read_clock(tid, decode_key(encoded)).restore(snapshot)
        for encoded, tids in extra["readers"]:  # type: ignore[union-attr]
            self.readers_since_write(decode_key(encoded)).update(int(t) for t in tids)
        if self._detector is not None:
            detector_state = extra.get("detector")
            if detector_state is None:
                raise ValueError("snapshot was taken without detect=True")
            self._detector.restore(detector_state)  # type: ignore[arg-type]


def compute_maz(trace: Trace, clock_class=None, **kwargs) -> AnalysisResult:
    """Convenience wrapper: run :class:`MAZAnalysis` over ``trace``."""
    from ..clocks.tree_clock import TreeClock

    analysis = MAZAnalysis(clock_class or TreeClock, **kwargs)
    return analysis.run(trace)
