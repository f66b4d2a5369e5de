"""Event model for concurrent execution traces.

The paper (Section 2.1) models a trace as a sequence of events
``e = <i, t, op>`` where ``i`` is a unique event identifier, ``t`` the
thread performing the event and ``op`` the operation.  The operations of
interest are reads and writes of global variables and lock acquire /
release.  Fork and join events are "ignored for ease of presentation" in
the paper but handling them is straightforward, so this module includes
them as first-class operations; the analyses in :mod:`repro.analysis`
order them exactly like a release/acquire pair on a dedicated lock.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class OpKind(enum.Enum):
    """The kind of operation an event performs."""

    READ = "r"
    WRITE = "w"
    ACQUIRE = "acq"
    RELEASE = "rel"
    FORK = "fork"
    JOIN = "join"
    BEGIN = "begin"
    END = "end"

    # Members are identity-compared singletons, so the C-level identity
    # hash is consistent with equality.  ``Enum`` hashes by name in
    # Python, which would cost a Python call on every dispatch-table and
    # kind-set lookup of the per-event walk.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Operation kinds that access a shared memory location.
ACCESS_KINDS = frozenset({OpKind.READ, OpKind.WRITE})

#: Operation kinds that operate on a lock.
LOCK_KINDS = frozenset({OpKind.ACQUIRE, OpKind.RELEASE})

#: Operation kinds that involve a second thread (fork / join).
THREAD_KINDS = frozenset({OpKind.FORK, OpKind.JOIN})

#: Operation kinds considered "synchronization" events by the paper's
#: evaluation (Table 1 reports the percentage of synchronization events,
#: which are the acquire/release events).
SYNC_KINDS = frozenset({OpKind.ACQUIRE, OpKind.RELEASE, OpKind.FORK, OpKind.JOIN})


class ThreadId(int):
    """Thread identifiers are small dense integers.

    Using a subclass of :class:`int` keeps thread ids cheap (they are used
    as array indices inside the clock data structures) while still letting
    type annotations distinguish them from other integers.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"t{int(self)}"


class Event(NamedTuple):
    """A single event of a concurrent execution trace.

    Events are immutable, hashable values.  The representation is a
    :class:`~typing.NamedTuple` rather than a dataclass deliberately:
    event construction is the floor under every decode and generation
    path (millions of events flow through the batched pipeline per
    walk), and tuple construction costs roughly half of what a frozen
    dataclass ``__init__`` (four ``object.__setattr__`` calls) does.
    The decoders and the capture paths go further and build events with
    ``tuple.__new__(Event, row)``, which skips the namedtuple's
    Python-level ``__new__``: the STD and CSV parsers once per line,
    live capture once per delivered event, the colf decoder mapped over
    zipped columns, which keeps its whole construction loop in C.

    Attributes
    ----------
    eid:
        Unique event identifier; equals the position of the event in the
        trace it belongs to.
    tid:
        Identifier of the thread that performs the event.
    kind:
        The operation kind (read, write, acquire, release, fork, join,
        begin, end).
    target:
        The object the operation acts upon: a variable name for
        read/write, a lock name for acquire/release, and the *other*
        thread id for fork/join.  ``None`` for begin/end events.
    """

    eid: int
    tid: int
    kind: OpKind
    target: Optional[object] = None

    # -- classification helpers ------------------------------------------------

    @property
    def is_read(self) -> bool:
        """True for read events."""
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        """True for write events."""
        return self.kind is OpKind.WRITE

    @property
    def is_access(self) -> bool:
        """True for events that access a shared variable."""
        return self.kind in ACCESS_KINDS

    @property
    def is_acquire(self) -> bool:
        """True for lock-acquire events."""
        return self.kind is OpKind.ACQUIRE

    @property
    def is_release(self) -> bool:
        """True for lock-release events."""
        return self.kind is OpKind.RELEASE

    @property
    def is_lock_op(self) -> bool:
        """True for acquire/release events."""
        return self.kind in LOCK_KINDS

    @property
    def is_fork(self) -> bool:
        """True for fork events."""
        return self.kind is OpKind.FORK

    @property
    def is_join(self) -> bool:
        """True for join events."""
        return self.kind is OpKind.JOIN

    @property
    def is_sync(self) -> bool:
        """True for synchronization events (acquire/release/fork/join)."""
        return self.kind in SYNC_KINDS

    # -- accessors matching the paper's notation -------------------------------

    @property
    def variable(self) -> object:
        """The variable accessed by a read/write event.

        Mirrors ``Variable(e)`` from the paper.  Raises :class:`ValueError`
        when the event is not a memory access.
        """
        if not self.is_access:
            raise ValueError(f"event {self!r} does not access a variable")
        return self.target

    @property
    def lock(self) -> object:
        """The lock operated on by an acquire/release event."""
        if not self.is_lock_op:
            raise ValueError(f"event {self!r} is not a lock operation")
        return self.target

    @property
    def other_thread(self) -> int:
        """The forked or joined thread of a fork/join event."""
        if self.kind not in THREAD_KINDS:
            raise ValueError(f"event {self!r} is not a fork/join")
        return int(self.target)  # type: ignore[arg-type]

    def conflicts_with(self, other: "Event") -> bool:
        """Whether two events are *conflicting* in the paper's sense.

        Two events conflict iff they access the same variable, are
        performed by different threads, and at least one is a write.
        """
        return (
            self.is_access
            and other.is_access
            and self.target == other.target
            and self.tid != other.tid
            and (self.is_write or other.is_write)
        )

    def pretty(self) -> str:
        """Human-readable rendering, e.g. ``t1: w(x)``."""
        if self.kind in (OpKind.BEGIN, OpKind.END):
            body = self.kind.value
        elif self.kind in THREAD_KINDS:
            body = f"{self.kind.value}(t{self.target})"
        else:
            body = f"{self.kind.value}({self.target})"
        return f"t{self.tid}: {body}"

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()


# -- convenience constructors ---------------------------------------------------


def read(tid: int, variable: object, eid: int = -1) -> Event:
    """Construct a read event ``<tid, r(variable)>``."""
    return Event(eid=eid, tid=tid, kind=OpKind.READ, target=variable)


def write(tid: int, variable: object, eid: int = -1) -> Event:
    """Construct a write event ``<tid, w(variable)>``."""
    return Event(eid=eid, tid=tid, kind=OpKind.WRITE, target=variable)


def acquire(tid: int, lock: object, eid: int = -1) -> Event:
    """Construct an acquire event ``<tid, acq(lock)>``."""
    return Event(eid=eid, tid=tid, kind=OpKind.ACQUIRE, target=lock)


def release(tid: int, lock: object, eid: int = -1) -> Event:
    """Construct a release event ``<tid, rel(lock)>``."""
    return Event(eid=eid, tid=tid, kind=OpKind.RELEASE, target=lock)


def fork(tid: int, child: int, eid: int = -1) -> Event:
    """Construct a fork event: ``tid`` forks thread ``child``."""
    return Event(eid=eid, tid=tid, kind=OpKind.FORK, target=int(child))


def join(tid: int, child: int, eid: int = -1) -> Event:
    """Construct a join event: ``tid`` joins thread ``child``."""
    return Event(eid=eid, tid=tid, kind=OpKind.JOIN, target=int(child))


def begin(tid: int, eid: int = -1) -> Event:
    """Construct a thread-begin marker event."""
    return Event(eid=eid, tid=tid, kind=OpKind.BEGIN, target=None)


def end(tid: int, eid: int = -1) -> Event:
    """Construct a thread-end marker event."""
    return Event(eid=eid, tid=tid, kind=OpKind.END, target=None)
