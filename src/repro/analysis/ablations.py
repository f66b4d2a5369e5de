"""Ablation variants of the analyses, each disabling one tree-clock optimization.

The paper's design rests on a few specific choices inside the tree-clock
algorithms.  The variants below disable one choice at a time, so that
the choice's contribution can be measured against the unchanged analysis:

* :class:`HBDeepCopyAnalysis` — replaces the ``MonotoneCopy`` performed at
  lock-release events with an unconditional deep copy.  This removes the
  sublinear-copy optimization justified by Lemma 2 while keeping joins
  unchanged.
* :class:`SHBDeepCopyAnalysis` — replaces ``CopyCheckMonotone`` on
  last-write clocks with an unconditional deep copy, i.e. ignores the
  O(1) monotonicity test of Section 5.1.

Both variants compute exactly the same timestamps as their optimized
counterparts (deep copies are semantically copies); only the cost
changes.  :func:`repro.metrics.measure_work` accepts these classes and
counts that cost as processed entries.
"""

from __future__ import annotations

from ..clocks.base import Clock
from ..trace.event import Event
from .hb import HBAnalysis
from .shb import SHBAnalysis


class HBDeepCopyAnalysis(HBAnalysis):
    """HB analysis that deep-copies thread clocks into lock clocks at releases."""

    PARTIAL_ORDER = "HB"

    def _on_release(self, event: Event, clock: Clock) -> None:
        self.clock_of_lock(event.target).copy_from(clock)


class SHBDeepCopyAnalysis(SHBAnalysis):
    """SHB analysis that deep-copies thread clocks into last-write clocks."""

    PARTIAL_ORDER = "SHB"

    def _on_write(self, event: Event, clock: Clock) -> None:
        self.last_write_clock(event.target).copy_from(clock)

    def _on_write_detect(self, event: Event, clock: Clock) -> None:
        # SHBAnalysis binds this variant when a detector is attached;
        # detection stays identical, only the copy discipline changes.
        self._detector.on_write(event, clock)  # type: ignore[union-attr]
        self._on_write(event, clock)
