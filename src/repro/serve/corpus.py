"""The content-addressed :class:`TraceCorpus` behind the analysis service.

A corpus is a directory of ingested traces plus a JSON index of
per-trace statistics.  Ingest is *content-addressed*: every incoming
trace — an STD/CSV[.gz] or colf file, an in-memory :class:`Trace`, or a
raw event stream — streams through a SHA-256 digest over its canonical
STD line form (:func:`repro.trace.io.std_line`), so the digest depends
only on the logical event sequence.  The same trace submitted twice (or
once as CSV, once as gzipped STD, once as colf) dedupes to one stored
entry.  The bytes on disk are a binary colf container
(``traces/<digest>.colf``, format ``repro-trace/1``) — the digest is a
*content* address, deliberately independent of the *storage* encoding,
which lets the stored format evolve without invalidating a single
digest.  Workers then feed sessions straight from the mmap'd segment
columns instead of re-parsing text on every analysis job.

The index (``index.json``, schema ``repro-serve-corpus/2``) carries the
per-trace statistics the scheduler and ``repro status`` report — event /
thread / lock / variable counts and the sync-event share — plus
free-form tags for corpus queries (``corpus.entries(tag="captured")``)
and each entry's stored ``format``.  Version-1 indexes (whose traces
are gzipped STD under ``<digest>.std.gz``) still load: their entries
keep ``format: "std.gz"`` and are read through the text decoders.

Ingest is streaming, through one core with two front ends.  STD text
(a ``submit`` body, stream spools, ``.std``/``.std.gz`` files) goes
line by line; every other source (CSV, colf, a :class:`Trace`, an event
iterable) goes event by event.  Both store each event as a cached
*thread record* and *op record*: the canonical line's ``T<tid>|`` and
``<op>(<target>)|`` bytes plus the event's colf cells and sync flag.  A
line whose thread and op tokens were seen before costs two dict hits
and no parse; an event whose tid and ``(kind, target)`` were seen
before costs two dict hits and no render.  Batches of records then feed
one digest update and one colf column append.  The record caches live
for one ingest and are cleared whenever one reaches
:data:`RECORD_CACHE_LIMIT` keys, so memory stays O(distinct targets)
plus O(batch), and a multi-gigabyte trace file never materializes in
memory.  Digests, stored bytes and statistics are exactly those of
rendering, hashing and writing event by event
(``tests/differential/test_ingest_differential.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
import zlib
from array import array
from dataclasses import dataclass, replace
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..api.sources import FileSource
from ..trace.colfmt import ColfWriter
from ..trace.event import ACCESS_KINDS, LOCK_KINDS, SYNC_KINDS, Event
from ..trace.io import (
    DEFAULT_BATCH_SIZE,
    StdParser,
    TraceFormatError,
    infer_format,
    iter_csv,
    iter_trace_file,
    open_trace_text,
    std_line,
    std_token_shape,
)
from ..trace.trace import Trace

#: Schema identifier of the corpus index; bumped on breaking layout changes.
INDEX_SCHEMA = "repro-serve-corpus/2"

#: Older index schemas this corpus still loads (entries keep their
#: original stored format; only new ingests use the current layout).
COMPAT_SCHEMAS = ("repro-serve-corpus/1",)

#: Stored-file format of entries from a version-1 index.
_LEGACY_FORMAT = "std.gz"

#: Stored-file format of freshly ingested entries.
_NATIVE_FORMAT = "colf"


class CorpusError(ValueError):
    """Raised on unusable corpus input (corrupt files, unknown digests)."""


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    """One ingested trace: its digest, statistics and tags.

    ``digest`` is the SHA-256 over the canonical STD lines — the
    content address and primary key; ``format`` is the stored *encoding*
    (``"colf"`` for native ingests, ``"std.gz"`` for entries carried
    over from a version-1 index) and ``filename`` the stored file name
    relative to the corpus's ``traces/`` directory.
    """

    digest: str
    name: str
    events: int
    threads: int
    locks: int
    variables: int
    sync_events: int
    tags: Tuple[str, ...] = ()
    ingested_unix: float = 0.0
    format: str = _NATIVE_FORMAT

    @property
    def filename(self) -> str:
        """The canonical stored file name (relative to ``traces/``)."""
        return f"{self.digest}.{self.format}"

    @property
    def trace_fmt(self) -> str:
        """The :mod:`repro.trace.io` format key of the stored file."""
        return "colf" if self.format == _NATIVE_FORMAT else "std"

    @property
    def sync_fraction(self) -> float:
        """Share of events that are synchronization events."""
        return self.sync_events / self.events if self.events else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The index representation of this entry."""
        return {
            "digest": self.digest,
            "name": self.name,
            "events": self.events,
            "threads": self.threads,
            "locks": self.locks,
            "variables": self.variables,
            "sync_events": self.sync_events,
            "tags": list(self.tags),
            "ingested_unix": self.ingested_unix,
            "format": self.format,
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], default_format: str = _NATIVE_FORMAT
    ) -> "CorpusEntry":
        """Rebuild an entry from its index representation.

        ``default_format`` is the stored format assumed when the payload
        carries none — version-1 indexes predate the field, so their
        loader passes ``"std.gz"``.
        """
        return cls(
            digest=str(payload["digest"]),
            name=str(payload.get("name", "")),
            events=int(payload["events"]),  # type: ignore[arg-type]
            threads=int(payload.get("threads", 0)),  # type: ignore[arg-type]
            locks=int(payload.get("locks", 0)),  # type: ignore[arg-type]
            variables=int(payload.get("variables", 0)),  # type: ignore[arg-type]
            sync_events=int(payload.get("sync_events", 0)),  # type: ignore[arg-type]
            tags=tuple(payload.get("tags", ())),  # type: ignore[arg-type]
            ingested_unix=float(payload.get("ingested_unix", 0.0)),  # type: ignore[arg-type]
            format=str(payload.get("format", default_format)),
        )


IngestSource = Union[str, Path, Trace, Iterable[Event]]


#: Each record cache of one ingest is cleared when it reaches this many
#: keys.  Thread records are keyed per distinct thread token (or tid) and
#: op records per distinct op token (or kind and target), which is
#: O(distinct targets) like the parser's own token caches; the bound
#: keeps a trace whose every line names a new variable from growing them
#: further.  A cleared record is rebuilt on its next use.
RECORD_CACHE_LIMIT = 1 << 14

#: Target types whose equal values render equal STD text.  Only events
#: with an int tid and such a target share records; any other event
#: gets records of its own.
_PLAIN_TARGETS = frozenset({str, int, type(None)})

#: An eid and the line's newline as ASCII bytes, from an int eid.
_EID_LINE = b"%d\n".__mod__

_EID = itemgetter(0)


def _format_eid_line(eid: object) -> bytes:
    """An eid as :func:`std_line` renders it, with the newline, in UTF-8."""
    return f"{eid}\n".encode("utf-8")


#: Longest line :meth:`TraceCorpus.ingest_stream` reads, in bytes: the
#: server's request-frame cap, so no line of a ``submit`` body costs more
#: than a frame may.
MAX_LINE_BYTES = 1024 * 1024


class _LineBoundedStream(io.RawIOBase):
    """``raw``'s bytes, refused once more than :data:`MAX_LINE_BYTES` are read past a line break."""

    def __init__(self, raw: BinaryIO) -> None:
        super().__init__()
        self._raw = raw
        self._run = 0  # bytes read since the last line break

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        # "\r" ends a line too: the text layer reads universal newlines.
        cut = max(data.rfind(b"\n"), data.rfind(b"\r"))
        self._run = len(data) - cut - 1 if cut >= 0 else self._run + len(data)
        if self._run > MAX_LINE_BYTES:
            raise TraceFormatError(f"a line is longer than {MAX_LINE_BYTES} bytes")
        return data


class _Ingest:
    """One ingest in progress: digest, colf columns, counts, record caches.

    The canonical STD line :func:`~repro.trace.io.std_line` renders for
    an event is ``T<tid>|`` + ``<op>(<target>)|`` + ``<eid>``.  Its
    first part depends on the thread alone and its second on the
    operation alone, so each event is stored as two *records*:

    * a thread record ``(b"T<tid>|", colf thread slot)``;
    * an op record ``(b"<op>(<target>)|", colf kind code, colf target
      slot, is sync)``.

    Both are cut from one ``std_line`` when either is first needed, and
    cached: STD lines key them on their thread and op tokens, events on
    ``tid`` and ``(kind, target)``.  So the line is rendered, the colf
    cells are interned and the thread/lock/variable sets are updated
    only when an event names a new thread or a new operation, not once
    per event.  Records are batched: one digest update over the batch's
    lines and one :meth:`ColfWriter.append_columns` per batch.  The
    digest input and the stored bytes are exactly those of rendering,
    hashing and writing event by event.
    """

    __slots__ = (
        "writer", "hasher", "thread_records", "op_records", "num_events",
        "sync_events", "threads", "locks", "variables",
    )

    def __init__(self, writer: ColfWriter) -> None:
        self.writer = writer
        self.hasher = hashlib.sha256()
        self.thread_records: Dict[object, tuple] = {}
        self.op_records: Dict[object, tuple] = {}
        self.num_events = 0
        self.sync_events = 0
        self.threads: set = set()
        self.locks: set = set()
        self.variables: set = set()

    # -- the two front ends ------------------------------------------------------------

    def std_file(self, path: Union[str, Path]) -> None:
        """Ingest an STD text file (gzip by content), line by line."""
        with open_trace_text(path) as handle:
            self.std_lines(handle)

    def std_lines(self, lines: Iterable[str]) -> None:
        """Ingest STD text lines.

        A line of :func:`std_token_shape` takes its records from the
        caches by its thread and op tokens, so a line of known tokens
        costs two dict hits and no parse.  Every other line, and each
        line with a new token, goes through ``StdParser.parse``, which
        assigns the eids and raises the errors :func:`iter_std` does.
        """
        parser = StdParser()
        get_thread = self.thread_records.get
        get_op = self.op_records.get
        threads: List[tuple] = []
        ops: List[tuple] = []
        append_thread = threads.append
        append_op = ops.append
        first = 0
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.strip()
            if not line or line[0] == "#":
                continue
            parts = line.split("|")
            if std_token_shape(parts):
                thread = get_thread(parts[0])
                op = get_op(parts[1])
                if thread is None or op is None:
                    event = parser.parse(raw_line, first + len(ops), line_number)
                    thread, op = self._records(event)
                    if parser.cached(parts[0], parts[1]):
                        self._remember(parts[0], thread, parts[1], op)
            else:
                thread, op = self._records(parser.parse(raw_line, first + len(ops), line_number))
            append_thread(thread)
            append_op(op)
            if len(ops) == DEFAULT_BATCH_SIZE:
                self._add(threads, ops, map(_EID_LINE, range(first, first + len(ops))))
                first += len(ops)
                threads.clear()
                ops.clear()
        self._add(threads, ops, map(_EID_LINE, range(first, first + len(ops))))

    def events(self, events: Iterable[Event]) -> None:
        """Ingest events: CSV and colf decodes, a :class:`Trace`, any iterable."""
        get_thread = self.thread_records.get
        get_op = self.op_records.get
        iterator = iter(events)
        while True:
            chunk = list(islice(iterator, DEFAULT_BATCH_SIZE))
            if not chunk:
                return
            threads = []
            ops = []
            for event in chunk:
                tid = event[1]
                if tid.__class__ is int and event[3].__class__ in _PLAIN_TARGETS:
                    op_key = event[2:]
                    thread = get_thread(tid)
                    op = get_op(op_key)
                    if thread is None or op is None:
                        thread, op = self._records(event)
                        self._remember(tid, thread, op_key, op)
                else:
                    thread, op = self._records(event)
                threads.append(thread)
                ops.append(op)
            self._add(threads, ops, map(_format_eid_line, map(_EID, chunk)))

    # -- records -----------------------------------------------------------------------

    def _records(self, event: Event) -> Tuple[tuple, tuple]:
        """The thread and op records of ``event``, cut from its ``std_line``."""
        line = std_line(event).encode("utf-8")
        # For an int tid, the thread field "T<tid>" holds no "|".  Records
        # of other tids are never cached, so where they split is moot.
        split = line.index(b"|") + 1
        end = len(line) - len(format(event.eid).encode("utf-8"))
        tid, kind, target = event.tid, event.kind, event.target
        kind_code, tid_slot, target_slot = self.writer.codes(tid, kind, target)
        self.threads.add(tid)
        if kind in LOCK_KINDS:
            self.locks.add(target)
        elif kind in ACCESS_KINDS:
            self.variables.add(target)
        return (line[:split], tid_slot), (line[split:end], kind_code, target_slot, kind in SYNC_KINDS)

    def _remember(self, thread_key: object, thread: tuple, op_key: object, op: tuple) -> None:
        thread_records, op_records = self.thread_records, self.op_records
        if len(thread_records) >= RECORD_CACHE_LIMIT:
            thread_records.clear()
        thread_records[thread_key] = thread
        if len(op_records) >= RECORD_CACHE_LIMIT:
            op_records.clear()
        op_records[op_key] = op

    def _add(self, threads: List[tuple], ops: List[tuple], eid_lines: Iterable[bytes]) -> None:
        """Hash, store and count one batch of events, given as their records."""
        if not ops:
            return
        prefixes, tid_slots = zip(*threads)
        texts, kinds, target_slots, syncs = zip(*ops)
        self.hasher.update(b"".join(chain.from_iterable(zip(prefixes, texts, eid_lines))))
        self.writer.append_columns(bytes(kinds), array("I", tid_slots), array("I", target_slots))
        self.sync_events += sum(syncs)
        self.num_events += len(ops)


class TraceCorpus:
    """A directory-backed, content-addressed store of analysis traces.

    Thread-safe: every server handler thread (and the streaming save
    path) shares one corpus, so ingests and index saves are serialized
    by an internal lock.  One process writes a corpus directory: the
    server that owns it.  So an ingest's temp file
    (``traces/.ingest-*.tmp.colf``) found when the corpus opens was left
    by a writer that died mid-ingest, and is deleted.
    """

    _ingest_counter = count()

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.json"
        self._entries: Dict[str, CorpusEntry] = {}
        # The sum of the entries' event counts, kept on ingest and removal.
        self._total_events = 0
        self._lock = threading.RLock()
        for stale in self.traces_dir.glob(".ingest-*.tmp.colf"):
            stale.unlink(missing_ok=True)
        self._load_index()

    # -- index persistence -------------------------------------------------------------

    def _load_index(self) -> None:
        if not self.index_path.exists():
            return
        try:
            payload = json.loads(self.index_path.read_text())
        except json.JSONDecodeError as error:
            raise CorpusError(f"{self.index_path}: corrupt corpus index ({error})") from error
        schema = payload.get("schema")
        if schema == INDEX_SCHEMA:
            default_format = _NATIVE_FORMAT
        elif schema in COMPAT_SCHEMAS:
            default_format = _LEGACY_FORMAT
        else:
            raise CorpusError(
                f"{self.index_path}: unsupported corpus index schema {schema!r} "
                f"(expected {INDEX_SCHEMA!r} or one of {COMPAT_SCHEMAS!r})"
            )
        for digest, entry in payload.get("traces", {}).items():
            self._entries[digest] = CorpusEntry.from_dict(entry, default_format=default_format)
        self._total_events = sum(entry.events for entry in self._entries.values())

    def _save_index(self) -> None:
        payload = {
            "schema": INDEX_SCHEMA,
            "traces": {digest: entry.as_dict() for digest, entry in self._entries.items()},
        }
        temp = self.index_path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(payload) + "\n")
        os.replace(temp, self.index_path)

    # -- ingest ------------------------------------------------------------------------

    def ingest(
        self,
        source: IngestSource,
        name: Optional[str] = None,
        tags: Sequence[str] = (),
    ) -> Tuple[CorpusEntry, bool]:
        """Ingest a trace; returns ``(entry, created)``.

        ``source`` may be a trace file path (STD/CSV/colf, ``.gz``-aware,
        format sniffed from content), an in-memory :class:`Trace`, or any
        iterable of events.  Whatever the input encoding, the stored file
        is a colf container; the digest is over the canonical STD lines,
        so a trace whose logical content is already stored dedupes to the
        existing entry (``created`` is ``False``; new tags are merged in).
        Corrupt or truncated files — bad gzip streams, torn colf
        containers, malformed trace lines — raise :class:`CorpusError`
        and leave the corpus unchanged.
        """
        if isinstance(source, (str, Path)):
            default_name = Path(source).name
            fmt = infer_format(source)
            if fmt == "std":
                fill: Callable[[_Ingest], None] = lambda ingest: ingest.std_file(source)
            else:
                events: Iterable[Event] = iter_trace_file(source, fmt=fmt)
                fill = lambda ingest: ingest.events(events)
        else:
            default_name = (source.name or "") if isinstance(source, Trace) else ""
            fill = lambda ingest: ingest.events(source)
        return self._ingest(
            fill, name=name if name is not None else default_name, tags=tags, origin=source
        )

    def ingest_stream(
        self,
        stream: BinaryIO,
        fmt: str = "std",
        name: Optional[str] = None,
        tags: Sequence[str] = (),
    ) -> Tuple[CorpusEntry, bool]:
        """Ingest STD or CSV trace text read from a binary stream (a ``submit`` body).

        The bytes are decoded by the text layer a file read uses, so they
        split into the same lines (universal newlines: ``\\n``, ``\\r\\n``
        and ``\\r`` only) and submitting a file's content gives the digest,
        stats and errors of ingesting the file.  ``surrogatepass`` decodes
        an encoded lone surrogate, which then fails the line that names
        it.  The stream is read as the ingest goes, never whole, and is
        left open.  A read that leaves more than :data:`MAX_LINE_BYTES`
        past the last line break is refused, so a line never holds more
        than that and one read.
        """
        if fmt not in ("std", "csv"):
            raise ValueError(f"unknown trace format {fmt!r}; expected 'std' or 'csv'")
        lines = io.TextIOWrapper(
            _LineBoundedStream(stream), encoding="utf-8", errors="surrogatepass"
        )
        if fmt == "std":
            fill: Callable[[_Ingest], None] = lambda ingest: ingest.std_lines(lines)
        else:
            fill = lambda ingest: ingest.events(iter_csv(lines))
        try:
            return self._ingest(fill, name=name or "", tags=tags, origin=None)
        finally:
            lines.detach()

    def _ingest(
        self,
        fill: Callable[["_Ingest"], None],
        name: str,
        tags: Sequence[str],
        origin: object,
    ) -> Tuple[CorpusEntry, bool]:
        temp_path = self.traces_dir / (
            f".ingest-{os.getpid()}-{threading.get_ident()}-"
            f"{next(self._ingest_counter)}.tmp.colf"
        )
        try:
            with ColfWriter(temp_path) as writer:
                ingest = _Ingest(writer)
                fill(ingest)
        except (TraceFormatError, EOFError, zlib.error, OSError) as error:
            temp_path.unlink(missing_ok=True)
            where = f" {origin}" if isinstance(origin, (str, Path)) else ""
            raise CorpusError(
                f"cannot ingest trace{where}: {type(error).__name__}: {error}"
            ) from error
        except BaseException:
            temp_path.unlink(missing_ok=True)
            raise

        digest = ingest.hasher.hexdigest()
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                temp_path.unlink(missing_ok=True)
                merged_tags = tuple(sorted(set(existing.tags) | set(tags)))
                if merged_tags != existing.tags:
                    existing = replace(existing, tags=merged_tags)
                    self._entries[digest] = existing
                    self._save_index()
                return existing, False

            entry = CorpusEntry(
                digest=digest,
                name=name or digest[:12],
                events=ingest.num_events,
                threads=len(ingest.threads),
                locks=len(ingest.locks),
                variables=len(ingest.variables),
                sync_events=ingest.sync_events,
                tags=tuple(sorted(set(tags))),
                ingested_unix=time.time(),
            )
            os.replace(temp_path, self.traces_dir / entry.filename)
            self._entries[digest] = entry
            self._total_events += entry.events
            self._save_index()
            return entry, True

    # -- lookup ------------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __iter__(self) -> Iterator[CorpusEntry]:
        return iter(self.entries())

    def get(self, digest: str) -> CorpusEntry:
        """The entry stored under ``digest``; raises :class:`CorpusError` if absent."""
        with self._lock:
            entry = self._entries.get(digest)
        if entry is None:
            raise CorpusError(f"no trace with digest {digest!r} in corpus {self.root}")
        return entry

    def entries(self, tag: Optional[str] = None) -> List[CorpusEntry]:
        """All entries (optionally filtered by tag), oldest-ingested first."""
        with self._lock:
            selected = [
                entry
                for entry in self._entries.values()
                if tag is None or tag in entry.tags
            ]
        return sorted(selected, key=lambda entry: (entry.ingested_unix, entry.digest))

    def trace_path(self, digest: str) -> Path:
        """Path of the stored canonical trace file for ``digest``."""
        return self.traces_dir / self.get(digest).filename

    def open_source(self, digest: str) -> FileSource:
        """A lazy :class:`FileSource` over the stored trace (O(1) memory)."""
        entry = self.get(digest)
        return FileSource(self.trace_path(digest), fmt=entry.trace_fmt, name=entry.name)

    def load(self, digest: str) -> Trace:
        """The stored trace, materialized in memory."""
        entry = self.get(digest)
        return Trace(
            iter_trace_file(self.trace_path(digest), fmt=entry.trace_fmt), name=entry.name
        )

    def remove(self, digest: str) -> None:
        """Delete a stored trace and its index entry."""
        with self._lock:
            entry = self.get(digest)
            (self.traces_dir / entry.filename).unlink(missing_ok=True)
            del self._entries[digest]
            self._total_events -= entry.events
            self._save_index()

    # -- summaries ---------------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Sum of the event counts of every stored trace (a running tally)."""
        with self._lock:
            return self._total_events

    def summary(self) -> Dict[str, object]:
        """Corpus-level counts for ``repro status``."""
        return {
            "root": str(self.root),
            "traces": len(self),
            "events": self.total_events,
        }


