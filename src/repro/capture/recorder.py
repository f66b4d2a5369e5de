"""The thread-safe trace recorder at the heart of :mod:`repro.capture`.

A :class:`TraceRecorder` turns a live multithreaded Python program into a
:class:`~repro.trace.trace.Trace`.  Design goals, in order:

1. **Low overhead on the recording threads.**  Each thread appends into
   its own buffer (no shared-lock contention on the hot path); a global
   sequence counter — atomic under the GIL — stamps every event so the
   buffers can be merged into a single totally-ordered trace on flush.
   This mirrors the analyses' single-pass model: the merged sequence *is*
   the observed interleaving.
2. **A valid interleaving by construction.**  The instrumented primitives
   (:mod:`repro.capture.primitives`) take their sequence stamp while the
   underlying lock is actually held (after a real acquire, before a real
   release), so the recorded order always satisfies the trace model's
   lock semantics and passes :mod:`repro.trace.validation`.
3. **Online consumption.**  Subscribers (the
   :class:`~repro.capture.online.OnlineDetector`) receive events in
   sequence order the moment they are recorded; stamping and delivery
   are then serialized by a small lock, trading some recording speed for
   a totally ordered live stream.

Thread identifiers are dense integers assigned in registration order
(the recorder's creating thread is ``t0``), exactly what the clock data
structures want.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from ..trace.event import OpKind, Event
from ..trace.trace import Trace

#: One recorded event: (sequence stamp, dense thread id, kind, target, location).
RawEvent = Tuple[int, int, OpKind, object, Optional[str]]

#: Signature of online subscribers.
Subscriber = Callable[[int, int, OpKind, object, Optional[str]], None]

_CAPTURE_DIR = os.path.dirname(os.path.abspath(__file__))


def caller_location() -> Optional[str]:
    """Source location (``file:line``) of the innermost frame outside this package.

    Walks the Python stack past the capture machinery (and the stdlib
    ``threading`` module, whose frames appear when events are recorded
    from inside ``Condition.wait``) to the traced program's own code.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.startswith(_CAPTURE_DIR) and os.path.basename(filename) != "threading.py":
            try:
                relative = os.path.relpath(filename)
            except ValueError:  # pragma: no cover - different drive on Windows
                relative = filename
            if relative.startswith(".."):
                relative = os.path.basename(filename)
            return f"{relative}:{frame.f_lineno}"
        frame = frame.f_back
    return None  # pragma: no cover - the stack always has a non-capture frame


class TraceRecorder:
    """Records events from live threads and assembles them into a trace.

    Parameters
    ----------
    name:
        Name given to the built :class:`Trace`.
    record_locations:
        When true, every event records the source location of the program
        statement that produced it (one stack walk per event — noticeable
        but affordable; off by default for library use, on for the
        ``repro capture`` CLI).
    """

    def __init__(self, name: str = "capture", record_locations: bool = False) -> None:
        self.name = name
        self.record_locations = record_locations
        self._seq = itertools.count()
        self._registry_lock = threading.Lock()
        self._deliver_lock = threading.Lock()
        self._tls = threading.local()
        self._buffers: List[List[RawEvent]] = []
        self._next_tid = 0
        self._subscribers: List[Subscriber] = []

    # -- thread registration -------------------------------------------------------

    def allocate_tid(self) -> int:
        """Reserve the next dense thread id (used by fork, before the child runs)."""
        with self._registry_lock:
            tid = self._next_tid
            self._next_tid += 1
        return tid

    def adopt(self, tid: int) -> None:
        """Bind the calling OS thread to the pre-allocated dense id ``tid``."""
        self._tls.tid = tid

    def current_tid(self) -> int:
        """Dense id of the calling thread, allocating one on first use."""
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            tid = self.allocate_tid()
            self._tls.tid = tid
        return tid

    @property
    def num_threads(self) -> int:
        """Number of dense thread ids handed out so far."""
        return self._next_tid

    # -- recording ------------------------------------------------------------------

    def _buffer(self) -> List[RawEvent]:
        buffer = getattr(self._tls, "buffer", None)
        if buffer is None:
            buffer = []
            self._tls.buffer = buffer
            with self._registry_lock:
                self._buffers.append(buffer)
        return buffer

    def record(
        self,
        kind: OpKind,
        target: object,
        location: Optional[str] = None,
        tid: Optional[int] = None,
    ) -> int:
        """Record one event for the calling thread; returns its sequence stamp."""
        if tid is None:
            tid = self.current_tid()
        if location is None and self.record_locations:
            location = caller_location()
        buffer = self._buffer()
        if self._subscribers:
            # Online mode: stamping and delivery are one critical section so
            # subscribers observe the exact total order of the final trace.
            with self._deliver_lock:
                seq = next(self._seq)
                buffer.append((seq, tid, kind, target, location))
                for subscriber in self._subscribers:
                    subscriber(seq, tid, kind, target, location)
        else:
            seq = next(self._seq)
            buffer.append((seq, tid, kind, target, location))
        return seq

    # -- online subscription ----------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> None:
        """Attach an online consumer.

        Subscribe *before* the traced threads start: events recorded while
        no subscriber is attached are only buffered, not replayed.
        """
        with self._deliver_lock:
            self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach a previously attached consumer (no-op if absent)."""
        with self._deliver_lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    # -- flushing -----------------------------------------------------------------------

    def raw_events(self) -> List[RawEvent]:
        """Merge the per-thread buffers into one list sorted by sequence stamp.

        Call after the traced threads have been joined; a concurrent flush
        sees a consistent prefix per thread but may miss in-flight events.
        """
        with self._registry_lock:
            merged = [entry for buffer in self._buffers for entry in buffer]
        merged.sort(key=lambda entry: entry[0])
        return merged

    def __len__(self) -> int:
        return len(self.raw_events())

    def snapshot(self, name: Optional[str] = None) -> Tuple[Trace, List[Optional[str]]]:
        """The captured trace and its aligned source locations, in one merge.

        Prefer this over calling :meth:`trace` and :meth:`locations`
        separately when both are needed — each call re-merges and re-sorts
        the per-thread buffers.
        """
        merged = self.raw_events()
        events = [
            tuple.__new__(Event, (position, tid, kind, target))
            for position, (_, tid, kind, target, _) in enumerate(merged)
        ]
        locations = [location for (_, _, _, _, location) in merged]
        return Trace(events, name=name if name is not None else self.name), locations

    def trace(self, name: Optional[str] = None) -> Trace:
        """Build the captured :class:`Trace` (event ids = merge positions)."""
        return self.snapshot(name=name)[0]

    def locations(self) -> List[Optional[str]]:
        """Source locations aligned with the built trace's event ids."""
        return self.snapshot()[1]


# -- the active-recorder stack -------------------------------------------------------

_active_recorders: List[TraceRecorder] = []


def current_recorder() -> Optional[TraceRecorder]:
    """The innermost active recorder, or ``None`` outside any capture."""
    return _active_recorders[-1] if _active_recorders else None


@contextmanager
def activation(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Make ``recorder`` the active recorder for the dynamic extent of the block.

    The active recorder is processwide (not thread-local) on purpose: the
    traced program's worker threads must see it too.
    """
    _active_recorders.append(recorder)
    try:
        yield recorder
    finally:
        _active_recorders.remove(recorder)
