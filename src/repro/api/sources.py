"""The :class:`EventSource` protocol: one interface for every way events arrive.

Events reach the analyses from four places today — an in-memory
:class:`~repro.trace.trace.Trace`, a trace file on disk, a live
:class:`~repro.capture.recorder.TraceRecorder`, and the synthetic
generators of :mod:`repro.gen`.  Each gets a small adapter here exposing
the same three-method surface:

* ``name`` — what to call the trace in results,
* ``threads()`` — the thread universe if known upfront (lets clocks be
  allocated at full size), ``None`` when it grows dynamically,
* ``events()`` — an iterator over events in trace order.

Every source counts the events it hands out in ``events_emitted``; a
:class:`~repro.api.session.Session` with *k* specs leaves that counter at
*n*, not *k·n* — the tests assert exactly this to pin down the
one-walk-many-analyses contract.

Sources are consumed at two granularities: ``events()``, the per-event
protocol surface, and ``event_batches(batch_size)``, batches of up to
``batch_size`` events.  Each built-in source implements only its natural
one.  ``TraceSource``, ``GeneratorSource``, ``FileSource`` and
``ColfSource`` produce batches (tuple slices,
:func:`~repro.trace.io.iter_trace_chunks`, colf column batches), and their
``events()`` is the one generic flatten of those batches;
``CaptureSource`` replays a recorder per event.  :func:`iter_event_batches` is the adapter
``Session.run`` walks through: it uses the native batches when a source
has them and otherwise cuts the plain ``events()`` iterator with the
shared chunker (:func:`~repro.trace.io.iter_batches`), so a minimal
third-party source automatically rides the batched pipeline.

:func:`as_event_source` coerces the common raw objects (``Trace``, a
path, a recorder, a benchmark profile, a generator config, a callable)
so ``Session.run`` accepts any of them directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Protocol, Sequence, Union, runtime_checkable

from ..gen.random_trace import RandomTraceConfig, generate_trace
from ..gen.suite import BenchmarkProfile
from ..trace.colfmt import ColfReader
from ..trace.event import ColumnBatch, Event, EventBatch, OpKind
from ..trace.io import DEFAULT_BATCH_SIZE, infer_format, iter_batches, iter_trace_chunks
from ..trace.trace import Trace

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..capture.recorder import TraceRecorder
    from .session import Session, SessionResult


@runtime_checkable
class EventSource(Protocol):
    """Anything that can hand a session an ordered stream of events."""

    name: str
    events_emitted: int

    def threads(self) -> Optional[Sequence[int]]:
        """Thread universe known upfront, or ``None`` if it grows dynamically."""
        ...

    def events(self) -> Iterator[Event]:
        """The events, in trace order.  May be consumable only once.

        Sources may *additionally* expose ``event_batches(batch_size)``
        yielding event sequences or
        :class:`~repro.trace.event.ColumnBatch` batches; it is not part of the required
        surface — :func:`iter_event_batches` adapts any source without
        one — but implementing it natively skips the per-event hop.
        """
        ...


def iter_event_batches(
    source: "EventSource", batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[EventBatch]:
    """Walk ``source`` as event batches, natively when it can, adapted when not.

    The single entry point bulk consumers use: a source exposing
    ``event_batches()`` streams through it (chunked decode for files,
    tuple slicing for in-memory traces, column batches for colf); any
    other source has its per-event ``events()`` iterator cut into
    ``batch_size`` lists by :func:`~repro.trace.io.iter_batches`.  Either
    way the concatenation of the batches is exactly the event stream.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    native = getattr(source, "event_batches", None)
    if native is not None:
        yield from native(batch_size)
    else:
        yield from iter_batches(source.events(), batch_size)


class _BatchSource:
    """Base of the built-in sources whose natural walk is batches.

    A subclass implements ``event_batches(batch_size)``; :meth:`events`
    is defined here once, as the flatten of those batches, so the two
    surfaces cannot drift apart.
    """

    def events(self) -> Iterator[Event]:
        """The events, in trace order: the flatten of ``event_batches()``."""
        for batch in self.event_batches():  # type: ignore[attr-defined]
            yield from batch


def _iter_tuple_batches(
    source: "EventSource", events: Sequence[Event], batch_size: int
) -> Iterator[Sequence[Event]]:
    """Slice an in-memory event sequence into counted batches.

    The shared native ``event_batches`` body of the materialized sources
    (:class:`TraceSource`, :class:`GeneratorSource`): batch ``source``'s
    events and keep its ``events_emitted`` counter honest.  The slices
    are yielded as-is — every consumer takes any sequence, so copying
    them into lists would only add an O(batch) allocation per batch.
    """
    for start in range(0, len(events), batch_size):
        batch = events[start : start + batch_size]
        source.events_emitted += len(batch)
        yield batch


class TraceSource(_BatchSource):
    """Source over an in-memory :class:`Trace` (threads known upfront)."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.name = trace.name
        self.events_emitted = 0

    def threads(self) -> Sequence[int]:
        return self.trace.threads

    def event_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Sequence[Event]]:
        """Native batches: slices of the trace's in-memory event tuple."""
        return _iter_tuple_batches(self, self.trace.events, batch_size)


class FileSource(_BatchSource):
    """Source streaming a trace file (STD/CSV[.gz] or colf) lazily from disk.

    Nothing is materialized: events are decoded incrementally via
    :func:`~repro.trace.io.iter_trace_chunks`, so a session over a
    multi-gigabyte trace file runs in O(1) memory.  The format is
    sniffed from content bytes when not given, so a colf container
    handed to a ``FileSource`` already skips text parsing entirely —
    ``event_batches()`` rides the binary column decoder.  The thread
    universe is not known upfront (that would require reading the
    footer; use :class:`ColfSource` for that), so clocks grow
    dynamically.  ``events()`` can be called repeatedly; each call
    re-reads the file.
    """

    def __init__(self, path: Union[str, Path], fmt: Optional[str] = None, name: str = "") -> None:
        self.path = path
        self.fmt = fmt if fmt is not None else infer_format(path)
        self.name = name or str(path)
        self.events_emitted = 0

    def threads(self) -> None:
        return None

    def event_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[EventBatch]:
        """Native batches: the file decoded by :func:`~repro.trace.io.iter_trace_chunks`.

        Lines are parsed through the per-file token caches of the text
        decoders (colf containers are cut into column batches), and
        memory stays O(``batch_size``).
        """
        for batch in iter_trace_chunks(self.path, fmt=self.fmt, batch_size=batch_size):
            self.events_emitted += len(batch)
            yield batch


class ColfSource(_BatchSource):
    """Source holding a colf container mmap'd: threads upfront, column batches.

    Where :class:`FileSource` re-opens and re-decodes its file on every
    walk, a ``ColfSource`` keeps the container mapped for its lifetime
    and decodes straight off the page cache:

    * ``threads()`` comes from the footer thread table — the universe is
      known *upfront*, so sessions allocate clocks at full size exactly
      as they do for an in-memory :class:`TraceSource`.  No text source
      can offer this without a full pre-pass.
    * ``event_batches()`` cuts :class:`~repro.trace.event.ColumnBatch`
      batches straight from the mapped columns (three C-speed column
      passes per batch), never touching a text parser and building no
      :class:`Event` unless a consumer asks a batch for its events.

    The source holds an open file handle/mmap until :meth:`close` (it is
    also a context manager).  ``events()`` can be called repeatedly.
    """

    def __init__(self, path: Union[str, Path], name: str = "") -> None:
        self.path = path
        self.name = name or str(path)
        self.events_emitted = 0
        self._reader = ColfReader(path)

    def threads(self) -> Sequence[int]:
        """The thread universe, read from the container footer."""
        return self._reader.threads()

    def event_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        """Native batches: column batches cut from the mmap'd segments."""
        for batch in self._reader.iter_batches(batch_size):
            self.events_emitted += len(batch)
            yield batch

    def close(self) -> None:
        """Release the mmap and underlying file handle."""
        self._reader.close()

    def __enter__(self) -> "ColfSource":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self._reader.num_events


class GeneratorSource(_BatchSource):
    """Source over a synthetic-trace generator (profile, config or callable).

    The trace is generated on first use and cached, so a session's
    ``threads()`` + ``events()`` calls cost one generation.
    """

    def __init__(
        self,
        factory: Union[BenchmarkProfile, RandomTraceConfig, Callable[[], Trace]],
        name: str = "",
    ) -> None:
        if isinstance(factory, BenchmarkProfile):
            self._generate: Callable[[], Trace] = factory.generate
            default_name = factory.name
        elif isinstance(factory, RandomTraceConfig):
            self._generate = lambda: generate_trace(factory)
            default_name = factory.name
        elif callable(factory):
            self._generate = factory
            default_name = getattr(factory, "__name__", "generated")
        else:
            raise TypeError(
                "expected a BenchmarkProfile, RandomTraceConfig or zero-argument "
                f"callable returning a Trace, got {type(factory).__name__}"
            )
        self.name = name or default_name
        self.events_emitted = 0
        self._trace: Optional[Trace] = None

    def materialize(self) -> Trace:
        """The generated trace (created once, then cached)."""
        if self._trace is None:
            self._trace = self._generate()
        return self._trace

    def threads(self) -> Sequence[int]:
        return self.materialize().threads

    def event_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Sequence[Event]]:
        """Native batches: slices of the generated trace's event tuple."""
        return _iter_tuple_batches(self, self.materialize().events, batch_size)


class CaptureSource:
    """Source backed by a live :class:`~repro.capture.recorder.TraceRecorder`.

    Two modes:

    * **Live** — :meth:`attach` subscribes a session to the recorder so
      every recorded event is fed the moment it is stamped (this is what
      :class:`repro.capture.OnlineDetector` and the online path of
      ``repro capture`` do); :meth:`finish` detaches and closes the
      session.
    * **Post-hoc** — :meth:`events` replays whatever the recorder has
      buffered, in stamp order, after the traced program finished.

    In both modes the source collects per-event source locations, so its
    :meth:`locate` can be handed to the session as the ``locate``
    callback and races come out annotated with ``file:line``.
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self.recorder = recorder
        self.name = recorder.name
        self.events_emitted = 0
        self._locations: Dict[int, Optional[str]] = {}
        self._session: Optional["Session"] = None

    def locate(self, event: Event) -> Optional[str]:
        """Source location of ``event``, when the recorder captured one."""
        return self._locations.get(event.eid)

    def threads(self) -> None:
        return None

    # -- post-hoc replay ---------------------------------------------------------------

    def events(self) -> Iterator[Event]:
        for seq, tid, kind, target, location in self.recorder.raw_events():
            if location is not None:
                self._locations[seq] = location
            self.events_emitted += 1
            yield tuple.__new__(Event, (seq, tid, kind, target))

    # -- live subscription -------------------------------------------------------------

    def attach(self, session: "Session") -> None:
        """Begin ``session`` and feed it every event the recorder stamps.

        Call *before* starting the traced threads so no event is missed;
        the recorder serializes stamping and delivery, so feeds arrive in
        trace order without extra locking.
        """
        if self._session is not None:
            raise RuntimeError("a session is already attached to this source")
        session.begin(name=self.name)
        self._session = session
        self.recorder.subscribe(self._deliver)

    def _deliver(
        self, seq: int, tid: int, kind: OpKind, target: object, location: Optional[str]
    ) -> None:
        if location is not None:
            self._locations[seq] = location
        self.events_emitted += 1
        assert self._session is not None
        self._session.feed(tuple.__new__(Event, (seq, tid, kind, target)))

    def finish(self) -> "SessionResult":
        """Detach the live session and return its final result."""
        if self._session is None:
            raise RuntimeError("no session attached; call attach() first")
        self.recorder.unsubscribe(self._deliver)
        session, self._session = self._session, None
        return session.finish()


SourceLike = Union[
    "EventSource", Trace, str, Path, BenchmarkProfile, RandomTraceConfig, Callable[[], Trace]
]


def as_event_source(source: SourceLike) -> EventSource:
    """Coerce a raw object into an :class:`EventSource`.

    Accepts an existing source (returned unchanged), a :class:`Trace`, a
    file path, a :class:`~repro.capture.recorder.TraceRecorder`, a
    :class:`BenchmarkProfile` / :class:`RandomTraceConfig`, or a
    zero-argument callable returning a ``Trace``.
    """
    if isinstance(source, (_BatchSource, CaptureSource)):
        return source
    if isinstance(source, Trace):
        return TraceSource(source)
    if isinstance(source, (str, Path)):
        if infer_format(source) == "colf":
            return ColfSource(source)
        return FileSource(source)
    from ..capture.recorder import TraceRecorder  # local import: capture imports api

    if isinstance(source, TraceRecorder):
        return CaptureSource(source)
    if isinstance(source, (BenchmarkProfile, RandomTraceConfig)) or callable(source):
        return GeneratorSource(source)
    if isinstance(source, EventSource):  # structural check for third-party sources
        return source
    raise TypeError(f"cannot build an event source from {type(source).__name__}")
