"""``repro-trace/1`` — the binary columnar trace container.

Text trace decoding pays per-event string work no cache can remove:
every walk re-splits the same lines, re-hashes the same tokens and
re-interns the same ids.  This module defines the binary format that
makes a second walk free of all of it: a trace is stored as
structure-of-arrays **columns** over interned tables, so decoding an
event costs three indexed loads and one tuple construction — and the
columns themselves are available *zero-copy* (``memoryview`` slices of
an ``mmap``) for consumers that do not need event objects at all.

Layout (all integers little-endian)::

    +--------------------------------------------------------------+
    | header (16 bytes)                                            |
    |   magic     8s   b"\\xaeRPTRC1\\n"                            |
    |   version   u32  1                                           |
    |   flags     u32  0 (reserved)                                |
    +--------------------------------------------------------------+
    | segment 0                                                    |
    |   kinds     n × u8   op-kind codes                           |
    |   tids      n × u32  indices into the thread table           |
    |   targets   n × u32  indices into the target pool            |
    +--------------------------------------------------------------+
    | segment 1 ...                                                |
    +--------------------------------------------------------------+
    | footer                                                       |
    |   thread table:  u32 count, count × u64 tid values           |
    |   target pool:   u32 count, entries:                         |
    |       u8 tag 0 → none (begin/end)                            |
    |       u8 tag 1 → string: u32 length + UTF-8 bytes            |
    |       u8 tag 2 → thread: u32 index into the thread table     |
    |   segment index: u32 count, per segment:                     |
    |       u64 byte offset   u32 event count                      |
    |       u64 first ordinal u64 last ordinal                     |
    +--------------------------------------------------------------+
    | trailer (20 bytes)                                           |
    |   footer offset u64,  footer crc32 u32,  magic 8s            |
    +--------------------------------------------------------------+

The footer lives at the *end* (parquet-style) so writing is a single
streaming pass — no seek-back, any size trace, O(segment) memory.  The
trailer carries the footer offset and a CRC-32 of the footer bytes, so
a torn tail, a truncated download or a flipped bit is detected before
any column is trusted.  Because every segment records its byte offset,
event count and first/last event ordinal, **any segment decodes
independently** of the others.

Event identity is canonical: the writer assigns consecutive ordinals
(0, 1, 2, …) exactly like the STD text decoder does, so a trace
round-tripped through colf is event-for-event identical to the same
trace round-tripped through STD — the differential suite in
``tests/differential/test_colf_differential.py`` pins this down.

Changing anything about this layout requires bumping
:data:`COLF_VERSION` (and the format name) and keeping a reader for the
old version — see CONTRIBUTING.  The golden-file test in
``tests/unit/test_colfmt.py`` fails on any accidental layout drift.
"""

from __future__ import annotations

import io as _io
import mmap
import struct
import sys
import zlib
from array import array
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .event import Event, OpKind
from .io import TraceFormatError

#: First bytes of every colf file.  The lead byte is non-ASCII so no
#: text trace can collide, and the trailing newline detects text-mode
#: transfer mangling (the PNG trick).
COLF_MAGIC = b"\xaeRPTRC1\n"

#: Current container version; the on-disk format name is
#: ``repro-trace/<version>``.
COLF_VERSION = 1

#: Human-readable format name recorded in inspect output.
COLF_FORMAT_NAME = f"repro-trace/{COLF_VERSION}"

#: Events per segment written by default.  Segments are the unit of
#: independent decode and of batch materialization; 64 Ki events ≈
#: 576 KiB of columns — big enough that per-segment overhead vanishes,
#: small enough to keep a batch's memory bounded.
DEFAULT_SEGMENT_EVENTS = 65536

_HEADER = struct.Struct("<8sII")
_TRAILER = struct.Struct("<QI8s")
_SEGMENT_ENTRY = struct.Struct("<QIQQ")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Stable on-disk op-kind codes (pinned by the format, independent of
#: :class:`OpKind` declaration order).
_KIND_CODES: Dict[OpKind, int] = {
    OpKind.READ: 0,
    OpKind.WRITE: 1,
    OpKind.ACQUIRE: 2,
    OpKind.RELEASE: 3,
    OpKind.FORK: 4,
    OpKind.JOIN: 5,
    OpKind.BEGIN: 6,
    OpKind.END: 7,
}
_KINDS_BY_CODE: Tuple[OpKind, ...] = tuple(
    kind for kind, _ in sorted(_KIND_CODES.items(), key=lambda item: item[1])
)

#: Target-pool entry tags.
_TARGET_NONE = 0
_TARGET_STRING = 1
_TARGET_THREAD = 2

#: Bytes per event across the three columns (u8 kind + u32 tid + u32 target).
_EVENT_BYTES = 9

_LITTLE_ENDIAN = sys.byteorder == "little"

PathOrBinary = Union[str, Path, BinaryIO]


def is_colf_prefix(prefix: bytes) -> bool:
    """Whether ``prefix`` (the first bytes of a file) starts a colf container."""
    return prefix[: len(COLF_MAGIC)] == COLF_MAGIC


def _u32_column_bytes(column: "array[int]") -> bytes:
    """Serialize a u32 array in little-endian regardless of host order."""
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        column = array("I", column)
        column.byteswap()
    return column.tobytes()


def _u32_view(data: memoryview) -> Sequence[int]:
    """A u32 view of ``data``: zero-copy cast on little-endian hosts."""
    if _LITTLE_ENDIAN:
        return data.cast("I")
    swapped = array("I", bytes(data))  # pragma: no cover - big-endian hosts only
    swapped.byteswap()  # pragma: no cover
    return swapped  # pragma: no cover


# -- writing ---------------------------------------------------------------------


class ColfWriter:
    """Streaming single-pass writer of a ``repro-trace/1`` container.

    Events go in through :meth:`write` / :meth:`write_batch`; columns
    are buffered per segment and flushed every ``segment_events``
    events, so memory stays O(segment) for any trace length.  The
    writer assigns consecutive event ordinals (the incoming ``eid`` is
    ignored, exactly like the canonical STD serialization).  Closing
    the writer (or leaving its context) writes the footer and trailer;
    a file abandoned before :meth:`close` has no trailer and is
    rejected by the reader as truncated — never half-trusted.
    """

    def __init__(
        self, destination: PathOrBinary, segment_events: int = DEFAULT_SEGMENT_EVENTS
    ) -> None:
        if segment_events < 1:
            raise ValueError("segment_events must be >= 1")
        if isinstance(destination, (str, Path)):
            self._handle: BinaryIO = open(destination, "wb")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self.segment_events = segment_events
        self.events_written = 0
        self._closed = False
        self._offset = 0
        self._write(_HEADER.pack(COLF_MAGIC, COLF_VERSION, 0))
        # Column buffers of the open segment.
        self._kinds = bytearray()
        self._tids: "array[int]" = array("I")
        self._targets: "array[int]" = array("I")
        # Interned tables.  Pool entry 0 is always the None entry, so
        # begin/end events can share target index 0.
        self._threads: List[int] = []
        self._thread_index: Dict[int, int] = {}
        self._pool_entries: List[bytes] = [bytes([_TARGET_NONE])]
        self._pool_index: Dict[object, int] = {}
        # (byte offset, event count, first ordinal) per flushed segment.
        self._segments: List[Tuple[int, int, int]] = []

    # -- low-level helpers -----------------------------------------------------------

    def _write(self, data: bytes) -> None:
        self._handle.write(data)
        self._offset += len(data)

    def _thread_slot(self, tid: int) -> int:
        slot = self._thread_index.get(tid)
        if slot is None:
            slot = len(self._threads)
            self._threads.append(tid)
            self._thread_index[tid] = slot
        return slot

    def _target_slot(self, kind: OpKind, target: object) -> int:
        if target is None:
            return 0
        if kind is OpKind.FORK or kind is OpKind.JOIN:
            key: object = ("t", int(target))
            slot = self._pool_index.get(key)
            if slot is None:
                slot = len(self._pool_entries)
                self._pool_entries.append(
                    bytes([_TARGET_THREAD]) + _U32.pack(self._thread_slot(int(target)))
                )
                self._pool_index[key] = slot
            return slot
        text = target if isinstance(target, str) else str(target)
        slot = self._pool_index.get(text)
        if slot is None:
            slot = len(self._pool_entries)
            encoded = text.encode("utf-8")
            self._pool_entries.append(
                bytes([_TARGET_STRING]) + _U32.pack(len(encoded)) + encoded
            )
            self._pool_index[text] = slot
        return slot

    # -- the event surface -----------------------------------------------------------

    def write(self, event: Event) -> None:
        """Append one event (ordinals are assigned, not taken from ``eid``)."""
        if self._closed:
            raise ValueError("cannot write() to a closed ColfWriter")
        self._kinds.append(_KIND_CODES[event.kind])
        self._tids.append(self._thread_slot(event.tid))
        self._targets.append(self._target_slot(event.kind, event.target))
        self.events_written += 1
        if len(self._kinds) >= self.segment_events:
            self._flush_segment()

    def write_batch(self, events: Iterable[Event]) -> None:
        """Append a batch of events (the bulk counterpart of :meth:`write`)."""
        for event in events:
            self.write(event)

    def _flush_segment(self) -> None:
        count = len(self._kinds)
        if count == 0:
            return
        first = self.events_written - count
        self._segments.append((self._offset, count, first))
        self._write(bytes(self._kinds))
        self._write(_u32_column_bytes(self._tids))
        self._write(_u32_column_bytes(self._targets))
        self._kinds = bytearray()
        self._tids = array("I")
        self._targets = array("I")

    def close(self) -> None:
        """Flush the open segment, then write the footer and trailer."""
        if self._closed:
            return
        self._flush_segment()
        footer = bytearray()
        footer += _U32.pack(len(self._threads))
        for tid in self._threads:
            footer += _U64.pack(tid)
        footer += _U32.pack(len(self._pool_entries))
        for entry in self._pool_entries:
            footer += entry
        footer += _U32.pack(len(self._segments))
        for offset, count, first in self._segments:
            footer += _SEGMENT_ENTRY.pack(offset, count, first, first + count - 1)
        footer_offset = self._offset
        self._write(bytes(footer))
        self._write(_TRAILER.pack(footer_offset, zlib.crc32(bytes(footer)), COLF_MAGIC))
        self._closed = True
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()

    def __enter__(self) -> "ColfWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.close()
        elif self._owns_handle:
            self._handle.close()


def write_colf(
    events: Iterable[Event],
    destination: PathOrBinary,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
) -> int:
    """Write ``events`` as a colf container; returns the event count."""
    with ColfWriter(destination, segment_events=segment_events) as writer:
        writer.write_batch(events)
    return writer.events_written


# -- reading ---------------------------------------------------------------------


class ColfSegment:
    """One independently decodable slice of a colf trace.

    Exposes the raw columns as zero-copy views over the reader's mmap
    (``kind_codes`` / ``tid_indices`` / ``target_indices``) and the
    materialized form via :meth:`events`.  Valid only while the owning
    :class:`ColfReader` is open; closing the reader drops its segments,
    which breaks the segment/reader reference cycle.
    """

    __slots__ = ("_reader", "index", "offset", "count", "first_eid", "last_eid")

    def __init__(
        self, reader: "ColfReader", index: int, offset: int, count: int, first_eid: int, last_eid: int
    ) -> None:
        self._reader = reader
        self.index = index
        self.offset = offset
        self.count = count
        self.first_eid = first_eid
        self.last_eid = last_eid

    @property
    def nbytes(self) -> int:
        """Total bytes of this segment's columns."""
        return self.count * _EVENT_BYTES

    @property
    def kind_codes(self) -> memoryview:
        """Zero-copy u8 view of the op-kind column."""
        return self._reader._data[self.offset : self.offset + self.count]

    @property
    def tid_indices(self) -> Sequence[int]:
        """Zero-copy u32 view of the thread-index column."""
        start = self.offset + self.count
        return _u32_view(self._reader._data[start : start + 4 * self.count])

    @property
    def target_indices(self) -> Sequence[int]:
        """Zero-copy u32 view of the target-index column."""
        start = self.offset + 5 * self.count
        return _u32_view(self._reader._data[start : start + 4 * self.count])

    def events(self) -> List[Event]:
        """Materialize this segment's events (independent of all others)."""
        return self._reader._materialize(self)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColfSegment(index={self.index}, events={self.count}, "
            f"eids={self.first_eid}..{self.last_eid}, offset={self.offset})"
        )


class _FooterCursor:
    """Bounds-checked sequential reads over the footer bytes."""

    __slots__ = ("data", "pos", "base", "name")

    def __init__(self, data: memoryview, base: int, name: str) -> None:
        self.data = data
        self.pos = 0
        self.base = base
        self.name = name

    def take(self, size: int, what: str) -> memoryview:
        if self.pos + size > len(self.data):
            raise TraceFormatError(
                f"{self.name}: truncated colf footer reading {what} at byte offset "
                f"{self.base + self.pos} (need {size} bytes, "
                f"{len(self.data) - self.pos} left)"
            )
        view = self.data[self.pos : self.pos + size]
        self.pos += size
        return view

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]


class ColfReader:
    """Random-access reader over a ``repro-trace/1`` container.

    A path is ``mmap``'d read-only, so column access is zero-copy OS
    page-cache reads; raw ``bytes`` or a binary file-like work too (the
    tests and network paths use them).  All structural validation —
    magic, version, trailer, footer CRC, segment-index bounds — happens
    up front in the constructor; anything malformed raises
    :class:`TraceFormatError` naming the byte offset, never a raw
    ``struct.error`` or ``IndexError``.

    The reader is a context manager; closing releases the mmap.  Event
    materialization never leaks references into the mmap: kind objects
    and target strings come from the decoded footer tables, so events
    outlive the reader.
    """

    def __init__(self, source: Union[PathOrBinary, bytes]) -> None:
        self.name = "<bytes>"
        self._mmap: Optional[mmap.mmap] = None
        self._file: Optional[BinaryIO] = None
        if isinstance(source, (str, Path)):
            self.name = str(source)
            self._file = open(source, "rb")
            try:
                self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
                raw: Union[mmap.mmap, bytes] = self._mmap
            except ValueError:  # zero-length file: cannot mmap, and invalid anyway
                raw = self._file.read()
            except BaseException:
                # mmap itself failed (e.g. an OSError on an exotic fs):
                # the file handle must not leak with no reader to own it.
                handle, self._file = self._file, None
                handle.close()
                raise
        elif isinstance(source, (bytes, bytearray)):
            raw = bytes(source)
        else:
            read = getattr(source, "read", None)
            if read is None:
                raise TypeError(
                    f"expected a path, bytes or binary file-like, got {type(source).__name__}"
                )
            self.name = str(getattr(source, "name", "<stream>"))
            raw = read()
            if isinstance(raw, str):
                raise TraceFormatError(
                    f"{self.name}: colf containers are binary — open the file in 'rb' mode"
                )
        try:
            self._data = memoryview(raw)
            self._parse()
        except BaseException:
            self.close()
            raise

    # -- structural validation ---------------------------------------------------------

    def _fail(self, message: str) -> "NoReturn":  # type: ignore[name-defined]
        raise TraceFormatError(f"{self.name}: {message}")

    def _parse(self) -> None:
        data = self._data
        size = len(data)
        if size < _HEADER.size + _TRAILER.size:
            self._fail(
                f"truncated colf file ({size} bytes; a valid container is at least "
                f"{_HEADER.size + _TRAILER.size})"
            )
        magic, version, flags = _HEADER.unpack_from(data, 0)
        if magic != COLF_MAGIC:
            self._fail(
                f"bad magic {bytes(magic)!r} at byte offset 0 (expected {COLF_MAGIC!r})"
            )
        if version != COLF_VERSION:
            self._fail(
                f"unsupported colf version {version} at byte offset 8 "
                f"(this reader supports version {COLF_VERSION})"
            )
        if flags != 0:
            self._fail(f"unsupported colf flags {flags:#x} at byte offset 12 (expected 0)")
        self.version = version
        trailer_offset = size - _TRAILER.size
        footer_offset, footer_crc, trailer_magic = _TRAILER.unpack_from(data, trailer_offset)
        if trailer_magic != COLF_MAGIC:
            self._fail(
                f"bad trailer magic at byte offset {size - 8} — file is truncated "
                f"or has a torn tail"
            )
        if footer_offset < _HEADER.size or footer_offset > trailer_offset:
            self._fail(
                f"footer offset {footer_offset} at byte offset {trailer_offset} is "
                f"outside the file body ({_HEADER.size}..{trailer_offset})"
            )
        # The footer is copied out of the container buffer before any
        # further validation: a TraceFormatError raised mid-parse keeps
        # the cursor's sub-views alive in the traceback, and sub-views of
        # the mmap would make ``close()`` (run by __init__'s error path)
        # impossible until the traceback is released.  A bytes copy of a
        # few KB keeps error paths independent of the mmap lifecycle.
        footer = bytes(data[footer_offset:trailer_offset])
        if zlib.crc32(footer) != footer_crc:
            self._fail(
                f"footer checksum mismatch at byte offset {footer_offset} — "
                f"the file is corrupt"
            )
        cursor = _FooterCursor(memoryview(footer), footer_offset, self.name)

        thread_count = cursor.u32("thread-table count")
        self.thread_table: Tuple[int, ...] = tuple(
            cursor.u64(f"thread-table entry {i}") for i in range(thread_count)
        )

        pool_size = cursor.u32("target-pool count")
        pool: List[object] = []
        for i in range(pool_size):
            tag = cursor.take(1, f"target-pool tag {i}")[0]
            if tag == _TARGET_NONE:
                pool.append(None)
            elif tag == _TARGET_STRING:
                length = cursor.u32(f"target-pool string length {i}")
                payload = cursor.take(length, f"target-pool string {i}")
                pool.append(sys.intern(bytes(payload).decode("utf-8")))
            elif tag == _TARGET_THREAD:
                slot = cursor.u32(f"target-pool thread index {i}")
                if slot >= thread_count:
                    self._fail(
                        f"target-pool entry {i} references thread-table index {slot} "
                        f"(table has {thread_count} entries) at byte offset "
                        f"{footer_offset + cursor.pos - 4}"
                    )
                pool.append(self.thread_table[slot])
            else:
                self._fail(
                    f"unknown target-pool tag {tag} at byte offset "
                    f"{footer_offset + cursor.pos - 1}"
                )
        self.target_pool: Tuple[object, ...] = tuple(pool)

        segment_count = cursor.u32("segment-index count")
        segments: List[ColfSegment] = []
        expected_eid = 0
        for i in range(segment_count):
            entry_at = footer_offset + cursor.pos
            offset, count, first, last = _SEGMENT_ENTRY.unpack(
                cursor.take(_SEGMENT_ENTRY.size, f"segment-index entry {i}")
            )
            if count == 0 or first != expected_eid or last != first + count - 1:
                self._fail(
                    f"segment {i} ordinals are inconsistent at byte offset {entry_at} "
                    f"(offset={offset}, count={count}, eids={first}..{last}, "
                    f"expected first eid {expected_eid})"
                )
            if offset < _HEADER.size or offset + count * _EVENT_BYTES > footer_offset:
                self._fail(
                    f"segment {i} columns ({count} events at byte offset {offset}) "
                    f"overrun the file body (footer starts at {footer_offset})"
                )
            segments.append(ColfSegment(self, i, offset, count, first, last))
            expected_eid = last + 1
        if cursor.pos != len(footer):
            self._fail(
                f"{len(footer) - cursor.pos} trailing bytes in the colf footer at "
                f"byte offset {footer_offset + cursor.pos}"
            )
        self.segments: Tuple[ColfSegment, ...] = tuple(segments)
        self.num_events = expected_eid
        # Materialization tables resolved once: plain lists so the hot
        # loop pays one C-level index per column cell.
        self._thread_values: List[int] = list(self.thread_table)
        self._pool_values: List[object] = list(self.target_pool)
        self._kind_objects: Tuple[OpKind, ...] = _KINDS_BY_CODE

    # -- decoding ----------------------------------------------------------------------

    def _materialize(self, segment: ColfSegment) -> List[Event]:
        """Decode one segment into events: three C-speed column passes
        plus a C-level construction loop (``tuple.__new__`` mapped over
        the zipped columns, bypassing the namedtuple's Python
        ``__new__``)."""
        offset, count = segment.offset, segment.count
        data = self._data
        kind_objects = self._kind_objects
        codes = data[offset : offset + count].tolist()
        try:
            kinds = [kind_objects[code] for code in codes]
        except IndexError:
            bad = next(i for i, code in enumerate(codes) if code >= len(kind_objects))
            self._fail(
                f"segment {segment.index} has unknown op-kind code {codes[bad]} "
                f"at byte offset {offset + bad}"
            )
        threads = self._thread_values
        tid_cells = _u32_view(data[offset + count : offset + 5 * count])
        try:
            tids = [threads[cell] for cell in tid_cells]
        except IndexError:
            bad = next(i for i, cell in enumerate(tid_cells) if cell >= len(threads))
            cell_value = int(tid_cells[bad])
            tid_cells = None  # release the column view before raising
            self._fail(
                f"segment {segment.index} event {segment.first_eid + bad} references "
                f"thread-table index {cell_value} (table has {len(threads)} "
                f"entries) at byte offset {offset + count + 4 * bad}"
            )
        pool = self._pool_values
        target_cells = _u32_view(data[offset + 5 * count : offset + 9 * count])
        try:
            targets = [pool[cell] for cell in target_cells]
        except IndexError:
            bad = next(i for i, cell in enumerate(target_cells) if cell >= len(pool))
            cell_value = int(target_cells[bad])
            tid_cells = target_cells = None  # release the column views before raising
            self._fail(
                f"segment {segment.index} event {segment.first_eid + bad} references "
                f"target-pool index {cell_value} (pool has {len(pool)} "
                f"entries) at byte offset {offset + 5 * count + 4 * bad}"
            )
        first = segment.first_eid
        rows = zip(range(first, first + count), tids, kinds, targets)
        return list(map(tuple.__new__, repeat(Event), rows))

    def iter_batches(self, batch_size: Optional[int] = None) -> Iterator[List[Event]]:
        """Decode the trace as event batches.

        With ``batch_size=None`` (the throughput default) each segment
        materializes as one batch; a given ``batch_size`` re-slices
        segments into lists of at most that many events.  Either way
        the concatenation is the full event stream in trace order.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for segment in self.segments:
            events = self._materialize(segment)
            if batch_size is None or len(events) <= batch_size:
                yield events
            else:
                for start in range(0, len(events), batch_size):
                    yield events[start : start + batch_size]

    def iter_events(self) -> Iterator[Event]:
        """Decode the trace one event at a time (convenience wrapper)."""
        for batch in self.iter_batches():
            yield from batch

    def threads(self) -> Tuple[int, ...]:
        """The thread universe, known upfront from the footer table.

        Sorted ascending; the footer table itself stays in interning
        (first-appearance) order because the tid columns index into it.
        """
        return tuple(sorted(self.thread_table))

    def describe(self) -> Dict[str, object]:
        """Structured inspection payload (``repro trace inspect`` renders it)."""
        return {
            "format": COLF_FORMAT_NAME,
            "version": self.version,
            "source": self.name,
            "events": self.num_events,
            "threads": [int(tid) for tid in self.thread_table],
            "strings": [value for value in self.target_pool if isinstance(value, str)],
            "segments": [
                {
                    "index": segment.index,
                    "offset": segment.offset,
                    "bytes": segment.nbytes,
                    "events": segment.count,
                    "first_eid": segment.first_eid,
                    "last_eid": segment.last_eid,
                }
                for segment in self.segments
            ],
        }

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release the underlying mmap / file handle.

        Safe to call at any point of the lifecycle, including from the
        constructor's error path and repeatedly.  If column sub-views
        are still exported (e.g. held by the traceback of a decode
        error), releasing the buffer would raise ``BufferError``; the
        buffer is then left for the garbage collector, but the file
        handle is **always** closed — a corrupt container must never
        leak an open file or mask its ``TraceFormatError``.
        """
        data = getattr(self, "_data", None)
        self._data = None  # type: ignore[assignment]
        mapped, self._mmap = self._mmap, None
        handle, self._file = self._file, None
        # Segments point back at the reader; dropping them lets a closed
        # reader be freed by reference counting.
        self.segments = ()
        try:
            if data is not None:
                try:
                    data.release()
                except BufferError:
                    pass
            if mapped is not None:
                try:
                    mapped.close()
                except BufferError:
                    pass
        finally:
            if handle is not None:
                handle.close()

    def __enter__(self) -> "ColfReader":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self.num_events


def iter_colf_batches(
    source: Union[PathOrBinary, bytes], batch_size: Optional[int] = None
) -> Iterator[List[Event]]:
    """Stream a colf container as event batches (opens, decodes, closes).

    The colf branch of :func:`repro.trace.io.iter_trace_chunks`: one
    batch per segment by default, re-sliced when ``batch_size`` is
    given.  This is the fast path behind
    ``FileSource.event_batches`` for colf traces — no text parsing at
    all, and the file is read through an mmap.
    """
    with ColfReader(source) as reader:
        yield from reader.iter_batches(batch_size)


def read_colf_events(source: Union[PathOrBinary, bytes]) -> List[Event]:
    """Materialize every event of a colf container (eager convenience)."""
    with ColfReader(source) as reader:
        events: List[Event] = []
        for batch in reader.iter_batches():
            events.extend(batch)
        return events
