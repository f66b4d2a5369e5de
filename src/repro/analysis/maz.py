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

The lock rules are the engine's shared
:func:`~repro.analysis.engine.acquire_rule` and
:func:`~repro.analysis.engine.release_rule`.  The read and write rules
look each of ``LW_x``, ``R_{t,x}`` and ``LRDs_x`` up once per access, by
the event's target.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..clocks.base import Clock
from ..trace.event import Event
from ..trace.trace import Trace
from .detectors import ReversiblePairDetector
from .engine import PartialOrderAnalysis, acquire_rule, release_rule
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

    _on_acquire = acquire_rule
    _on_release = release_rule

    def _on_read(self, event: Event, clock: Clock) -> None:
        detector = self._detector
        if detector is not None:
            detector.on_access(event, clock)
        variable = event.target
        tid = event.tid
        last_write = self._last_write_clocks.get(variable)
        if last_write is None:
            last_write = self.last_write_clock(variable)
        clock.join(last_write)
        last_read = self._last_read_clocks.get((tid, variable))
        if last_read is None:
            last_read = self.last_read_clock(tid, variable)
        last_read.monotone_copy(clock)
        readers = self._readers_since_write.get(variable)
        if readers is None:
            readers = self.readers_since_write(variable)
        readers.add(tid)
        if detector is not None:
            detector.after_access(event, clock)

    def _on_write(self, event: Event, clock: Clock) -> None:
        detector = self._detector
        if detector is not None:
            detector.on_access(event, clock)
        variable = event.target
        last_write = self._last_write_clocks.get(variable)
        if last_write is None:
            last_write = self.last_write_clock(variable)
        clock.join(last_write)
        readers = self._readers_since_write.get(variable)
        if readers is None:
            readers = self.readers_since_write(variable)
        if readers:
            # Readers join in tid order.  A set's own order depends on its
            # hash-table history, which a restored checkpoint cannot
            # rebuild, and the join order shapes the tree clocks and their
            # work.  Each reader's R_{t,x} exists since its read.
            last_reads = self._last_read_clocks
            for reader_tid in sorted(readers):
                clock.join(last_reads[reader_tid, variable])
            readers.clear()
        last_write.monotone_copy(clock)
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
