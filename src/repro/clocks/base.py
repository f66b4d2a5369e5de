"""Common infrastructure shared by the clock data structures.

Both clock implementations (:class:`~repro.clocks.vector_clock.VectorClock`
and :class:`~repro.clocks.tree_clock.TreeClock`) represent *vector times*:
mappings from thread identifiers to local clock values (Section 2.2 of the
paper).  This module defines

* plain-dictionary vector-time helpers used by tests and oracles,
* :class:`ClockContext`, the per-analysis object that fixes the thread
  universe and collects work statistics, and
* :class:`WorkCounter`, the instrumentation used to reproduce the paper's
  ``VCWork`` / ``TCWork`` / ``VTWork`` metrics (Figures 8 and 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:
    from .tree_clock import TreeClockPool

VectorTime = Dict[int, int]
"""A vector time as a plain dictionary; missing threads implicitly map to 0."""


# -- plain vector-time operations (used by tests and the graph oracle) -----------


def vt_get(time: Mapping[int, int], tid: int) -> int:
    """The component of ``time`` for thread ``tid`` (0 when absent)."""
    return time.get(tid, 0)


def vt_leq(left: Mapping[int, int], right: Mapping[int, int]) -> bool:
    """Pointwise comparison ``left ⊑ right``."""
    return all(value <= right.get(tid, 0) for tid, value in left.items() if value)


def vt_join(left: Mapping[int, int], right: Mapping[int, int]) -> VectorTime:
    """Pointwise maximum ``left ⊔ right``."""
    joined: VectorTime = dict(left)
    for tid, value in right.items():
        if value > joined.get(tid, 0):
            joined[tid] = value
    return joined


def vt_equal(left: Mapping[int, int], right: Mapping[int, int]) -> bool:
    """Whether two vector times are equal (treating missing entries as 0)."""
    keys = set(left) | set(right)
    return all(left.get(tid, 0) == right.get(tid, 0) for tid in keys)


# -- work accounting --------------------------------------------------------------


@dataclass
class WorkCounter:
    """Counts the data-structure work performed during an analysis run.

    Attributes
    ----------
    entries_processed:
        Number of clock entries (vector-clock slots or tree-clock nodes)
        examined by join/copy/increment operations.  For vector clocks a
        join always processes ``k`` entries; for tree clocks this is the
        size of the "light gray" traversal area of Figures 4/5.  This is
        the quantity the paper calls ``VCWork`` / ``TCWork``.
    entries_updated:
        Number of clock entries whose value actually changed.  Because
        both data structures compute the same vector times, this equals
        the data-structure independent ``VTWork`` of Section 4.
    joins / copies / increments:
        Operation counts, for reporting.
    """

    entries_processed: int = 0
    entries_updated: int = 0
    joins: int = 0
    copies: int = 0
    increments: int = 0

    def record_increment(self) -> None:
        """Record the per-event local-clock increment."""
        self.increments += 1
        self.entries_processed += 1
        self.entries_updated += 1

    def record_join(self, processed: int, updated: int) -> None:
        """Record a join that examined ``processed`` entries and changed ``updated``."""
        self.joins += 1
        self.entries_processed += processed
        self.entries_updated += updated

    def record_copy(self, processed: int, updated: int) -> None:
        """Record a copy that examined ``processed`` entries and changed ``updated``."""
        self.copies += 1
        self.entries_processed += processed
        self.entries_updated += updated

    def merged_with(self, other: "WorkCounter") -> "WorkCounter":
        """A new counter with the totals of both counters."""
        return WorkCounter(
            entries_processed=self.entries_processed + other.entries_processed,
            entries_updated=self.entries_updated + other.entries_updated,
            joins=self.joins + other.joins,
            copies=self.copies + other.copies,
            increments=self.increments + other.increments,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.entries_processed = 0
        self.entries_updated = 0
        self.joins = 0
        self.copies = 0
        self.increments = 0


@dataclass
class ClockContext:
    """Shared state for all clocks of one analysis run.

    The context fixes the thread universe (so that vector clocks can be
    dense arrays indexed by thread position, as in the paper's Java
    implementation) and optionally carries a :class:`WorkCounter` that all
    clock operations report into.

    Parameters
    ----------
    threads:
        The thread identifiers appearing in the trace.  The universe may
        also grow *during* a run via :meth:`add_thread`, which is how the
        incremental (online) analyses handle threads that are only
        discovered as events stream in.
    counter:
        Optional work counter; when ``None`` the clocks skip work
        accounting entirely.
    """

    threads: Sequence[int]
    counter: Optional[WorkCounter] = None
    index_of: Dict[int, int] = field(init=False)
    #: The tree-clock node pool (:class:`~repro.clocks.tree_clock.TreeClockPool`),
    #: made by the context's first tree clock.  Every tree clock of the
    #: run stores its nodes as int indices into the pool's parallel
    #: lists and recycles dropped indices through its one free list, so
    #: no node is an object the cyclic garbage collector tracks.  Clock
    #: operations are single-threaded within one analysis run, and the
    #: pool lives and dies with its context.
    tc_pool: Optional["TreeClockPool"] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = list(dict.fromkeys(self.threads))
        self.threads = ordered
        self.index_of = {tid: position for position, tid in enumerate(ordered)}

    @property
    def num_threads(self) -> int:
        """Size of the thread universe (``k`` in the paper)."""
        return len(self.threads)

    def add_thread(self, tid: int) -> int:
        """Register ``tid`` in the universe (idempotent) and return its index.

        Existing clocks keep working after a registration: vector clocks
        grow their dense arrays lazily and tree clocks are sparse to begin
        with, so dynamic registration costs nothing on the static
        (whole-trace) path where the universe is known upfront.
        """
        index = self.index_of.get(tid)
        if index is None:
            index = len(self.threads)
            self.threads.append(tid)  # type: ignore[attr-defined]
            self.index_of[tid] = index
        return index


# -- the clock protocol ------------------------------------------------------------


@runtime_checkable
class Clock(Protocol):
    """The operations the partial-order algorithms need from a clock.

    Both :class:`~repro.clocks.vector_clock.VectorClock` and
    :class:`~repro.clocks.tree_clock.TreeClock` implement this protocol,
    which makes the analyses in :mod:`repro.analysis` parametric in the
    clock data structure — exactly the drop-in-replacement property the
    paper advertises.
    """

    context: ClockContext

    def get(self, tid: int) -> int:
        """The recorded local time of thread ``tid`` (0 if unknown)."""

    def increment(self, tid: int, amount: int = 1) -> None:
        """Advance the local time of ``tid`` (the clock's owner thread)."""

    def join(self, other: "Clock") -> None:
        """In-place pointwise maximum with ``other``."""

    def monotone_copy(self, other: "Clock") -> None:
        """In-place copy of ``other``, assuming ``self ⊑ other``."""

    def copy_check_monotone(self, other: "Clock") -> None:
        """In-place copy of ``other`` without the monotonicity assumption."""

    def copy_from(self, other: "Clock") -> None:
        """Unconditional in-place copy of ``other`` (Θ(size) time)."""

    def leq(self, other: "Clock") -> bool:
        """Whether ``self ⊑ other`` holds."""

    def as_dict(self) -> VectorTime:
        """A snapshot of the represented vector time."""

    def snapshot(self) -> object:
        """This clock's exact state as a JSON-safe value; records no work."""

    def restore(self, snapshot: object) -> None:
        """Overwrite this clock with a :meth:`snapshot` value; records no work.

        Assumes the context's thread universe already holds every thread
        the snapshot names (the engines restore the universe first).
        """


def clock_name(clock_class: type) -> str:
    """Short display name of a clock class ("VC", "TC", …)."""
    return getattr(clock_class, "SHORT_NAME", clock_class.__name__)
