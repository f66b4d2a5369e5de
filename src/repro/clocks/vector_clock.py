"""The classic vector clock data structure (the paper's baseline).

A vector clock is a flat integer array indexed by thread position
(Section 2.2).  ``join``, ``copy`` and ``leq`` iterate over all ``k``
entries and therefore take Θ(k) time per operation, which is exactly the
behaviour tree clocks improve upon.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .base import ClockContext, VectorTime


class VectorClock:
    """A flat, array-backed vector clock.

    Parameters
    ----------
    context:
        The shared :class:`~repro.clocks.base.ClockContext` fixing the
        thread universe and (optionally) the work counter.
    owner:
        Thread identifier this clock belongs to, or ``None`` for auxiliary
        clocks (lock clocks, last-write clocks).  The owner is only used
        for error reporting; unlike tree clocks, vector clocks have no
        structural notion of ownership.
    """

    SHORT_NAME = "VC"

    __slots__ = ("context", "owner", "_values")

    def __init__(self, context: ClockContext, owner: Optional[int] = None) -> None:
        self.context = context
        self.owner = owner
        self._values: List[int] = [0] * context.num_threads

    # -- basic accessors ---------------------------------------------------------

    def _grow(self) -> None:
        """Extend the entry array to the current size of the thread universe.

        The universe can grow mid-run when the incremental analyses
        discover new threads (:meth:`ClockContext.add_thread`); entries of
        threads registered after this clock was created are implicitly 0
        until touched.
        """
        universe = self.context.num_threads
        values = self._values
        if len(values) < universe:
            values.extend([0] * (universe - len(values)))

    def get(self, tid: int) -> int:
        """The recorded local time of thread ``tid``."""
        index = self.context.index_of.get(tid)
        if index is None or index >= len(self._values):
            return 0
        return self._values[index]

    def increment(self, tid: int, amount: int = 1) -> None:
        """Advance the entry of thread ``tid`` by ``amount``."""
        index = self.context.require_thread(tid)
        if index >= len(self._values):
            self._grow()
        self._values[index] += amount
        counter = self.context.counter
        if counter is not None:
            counter.record_increment()

    # -- vector-time operations ----------------------------------------------------

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum with ``other`` — touches all ``k`` entries."""
        if len(self._values) != len(other._values):
            self._grow()
            other._grow()
        values = self._values
        other_values = other._values
        updated = 0
        for index in range(len(values)):
            other_value = other_values[index]
            if other_value > values[index]:
                values[index] = other_value
                updated += 1
        counter = self.context.counter
        if counter is not None:
            counter.record_join(processed=len(values), updated=updated)

    def copy_from(self, other: "VectorClock") -> None:
        """Plain copy of ``other`` into this clock — touches all ``k`` entries."""
        if len(self._values) != len(other._values):
            self._grow()
            other._grow()
        values = self._values
        other_values = other._values
        updated = 0
        for index in range(len(values)):
            other_value = other_values[index]
            if values[index] != other_value:
                values[index] = other_value
                updated += 1
        counter = self.context.counter
        if counter is not None:
            counter.record_copy(processed=len(values), updated=updated)

    def monotone_copy(self, other: "VectorClock") -> None:
        """Copy assuming ``self ⊑ other``; for vector clocks this is a plain copy."""
        self.copy_from(other)

    def copy_check_monotone(self, other: "VectorClock") -> None:
        """Copy without the monotonicity assumption; also a plain copy."""
        self.copy_from(other)

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise comparison ``self ⊑ other``."""
        if len(self._values) != len(other._values):
            self._grow()
            other._grow()
        other_values = other._values
        return all(value <= other_values[index] for index, value in enumerate(self._values))

    # -- snapshots and debugging -----------------------------------------------------

    def as_dict(self) -> VectorTime:
        """Snapshot of the vector time (only non-zero entries are included)."""
        values = self._values
        return {
            tid: values[index]
            for tid, index in self.context.index_of.items()
            if index < len(values) and values[index]
        }

    def snapshot(self) -> List[object]:
        """The exact state as ``[length, [[tid, clk], ...]]``.

        ``length`` is the entry array's length, which a join or copy
        counts as its processed entries; in a growing universe it depends
        on when the clock was created.  The pairs are the non-zero
        entries in thread order.  Records no work.
        """
        threads = self.context.threads
        values = self._values
        return [len(values), [[threads[index], clk] for index, clk in enumerate(values) if clk]]

    def restore(self, snapshot: List[object]) -> None:
        """Overwrite this clock with a :meth:`snapshot` value.

        The threads must already be in the context's universe.  Records
        no work.
        """
        length, pairs = snapshot
        values = [0] * length  # type: ignore[operator]
        index_of = self.context.index_of
        for tid, clk in pairs:  # type: ignore[union-attr]
            values[index_of[tid]] = clk
        self._values = values

    def as_list(self) -> List[int]:
        """The raw entry list, ordered by the context's thread order."""
        self._grow()
        return list(self._values)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(tid, clock)`` pairs in thread order."""
        values = self._values
        for tid, index in self.context.index_of.items():
            yield tid, (values[index] if index < len(values) else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"t{tid}:{clk}" for tid, clk in self.items() if clk)
        return f"VectorClock({entries})"
