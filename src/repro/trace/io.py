"""Trace serialization.

Three on-disk formats are supported.  Two are plain text:

* the *STD format*, a line-oriented format modelled after the one used by
  the RAPID tool that the paper's artifact builds on
  (``<thread>|<op>(<target>)|<location>`` per line), and
* a CSV format (``eid,tid,kind,target``) convenient for spreadsheets and
  external tools.

Both formats round-trip exactly through :class:`~repro.trace.trace.Trace`.
Files whose name ends in ``.gz`` are transparently (de)compressed with
gzip — large captured traces are highly repetitive, so this typically
shrinks them by an order of magnitude on disk.

Both formats are decoded *lazily* by one per-event parser each:
:func:`iter_std` / :func:`iter_csv` (and the file-level
:func:`iter_trace_file`) yield events one at a time without ever
materializing a full :class:`Trace`, parsing through per-call token
caches (:class:`StdParser` / :class:`CsvParser`) — tid tokens, op tokens
and target ids of a trace file repeat massively, so after the first
occurrence a token costs one dict hit instead of a regex match, and
equal targets are interned to one shared string.  The eager
:func:`load_trace` / :func:`loads_std` / :func:`loads_csv` entry points
are thin wrappers that collect the same iterators into a ``Trace``.

Bulk consumers (``Session.feed_batch``, the serve workers, the bench
pipeline suite) take events in batches of :data:`DEFAULT_BATCH_SIZE`.
A per-event stream is cut into lists in one place,
:func:`iter_batches`; :func:`iter_trace_chunks` is that chunker over the
text decoders.  colf containers below decode natively into
:class:`~repro.trace.event.ColumnBatch` batches, parallel columns that
build no :class:`Event` until a consumer asks for one.

The third format is binary: the ``repro-trace/1`` **columnar
container** of :mod:`repro.trace.colfmt` (conventional suffix
``.colf``), which stores interned tables plus fixed-width
structure-of-arrays columns and decodes without any text parsing at
all — the corpus of :mod:`repro.serve` stores traces this way.  The
file-level entry points here (:func:`infer_format`,
:func:`iter_trace_file`, :func:`iter_trace_chunks`, :func:`save_trace`,
:func:`load_trace`) dispatch to it transparently, and
:func:`infer_format` recognizes every format by **content** (colf
magic, gzip magic, CSV header line), so misnamed files still decode
correctly.
"""

from __future__ import annotations

import csv
import gzip
import io
import re
import sys
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from .event import Event, EventBatch, OpKind
from .trace import Trace

#: Default events per batch of :func:`iter_batches` and every
#: ``feed_batch`` consumer downstream.  Big enough to amortize per-batch
#: bookkeeping to noise, small enough that a batch of events stays
#: comfortably inside the CPU cache working set.
DEFAULT_BATCH_SIZE = 4096

#: Read buffer for gzipped trace files: decompression in ~1 MiB spans
#: instead of the tiny default keeps the line iterator out of syscall
#: and inflate-restart overhead on multi-gigabyte captures.
_GZIP_BUFFER_BYTES = 1 << 20

_STD_KIND_NAMES = {
    OpKind.READ: "r",
    OpKind.WRITE: "w",
    OpKind.ACQUIRE: "acq",
    OpKind.RELEASE: "rel",
    OpKind.FORK: "fork",
    OpKind.JOIN: "join",
    OpKind.BEGIN: "begin",
    OpKind.END: "end",
}
_STD_KIND_BY_NAME = {name: kind for kind, name in _STD_KIND_NAMES.items()}

_STD_LINE = re.compile(
    r"^\s*T(?P<tid>\d+)\s*\|\s*(?P<op>[a-z]+)\s*(?:\(\s*(?P<target>[^)]*)\s*\))?\s*(?:\|\s*(?P<loc>\S+))?\s*$"
)

PathOrFile = Union[str, Path, TextIO]


class TraceFormatError(ValueError):
    """Raised when parsing a malformed trace file."""


def _target_to_text(event: Event) -> str:
    if event.target is None:
        return ""
    if event.kind in (OpKind.FORK, OpKind.JOIN):
        return f"T{event.target}"
    return str(event.target)


def _parse_target(kind: OpKind, text: Optional[str], line_number: int) -> Optional[object]:
    if kind in (OpKind.BEGIN, OpKind.END):
        return None
    if text is None or text == "":
        raise TraceFormatError(f"line {line_number}: operation {kind.value!r} requires a target")
    if kind in (OpKind.FORK, OpKind.JOIN):
        cleaned = text.strip()
        if cleaned.upper().startswith("T"):
            cleaned = cleaned[1:]
        try:
            return int(cleaned)
        except ValueError as exc:
            raise TraceFormatError(f"line {line_number}: invalid thread target {text!r}") from exc
    return text.strip()


# -- STD format -----------------------------------------------------------------


def std_line(event: Event) -> str:
    """One event rendered as a single STD-format line (no newline).

    This is the canonical per-event serialization: the content-addressed
    corpus of :mod:`repro.serve` hashes exactly these lines, so the same
    logical trace produces the same digest whether it arrived as STD,
    CSV, gzipped or in memory.  (The corpus renders one line per
    distinct thread and operation and reuses its ``T<tid>|`` and
    ``<op>(<target>)|`` bytes for later events; the lines it hashes
    are still exactly these.)
    """
    op = _STD_KIND_NAMES[event.kind]
    target = _target_to_text(event)
    if target:
        return f"T{event.tid}|{op}({target})|{event.eid}"
    return f"T{event.tid}|{op}|{event.eid}"


def dumps_std(trace: Trace) -> str:
    """Serialize a trace to the STD text format."""
    lines = [std_line(event) for event in trace]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_std_line(raw_line: str, eid: int, line_number: int = 0) -> Optional[Event]:
    """Parse one STD-format line into an event, or ``None`` for blanks/comments.

    The single-line building block behind :func:`iter_std`, also used
    directly by the :mod:`repro.serve` streaming-ingest protocol, where
    events arrive one line per network message and the caller maintains
    the running ``eid``.  Raises :class:`TraceFormatError` on malformed
    lines (``line_number`` only decorates the error message).
    """
    line = raw_line.strip()
    if not line or line.startswith("#"):
        return None
    match = _STD_LINE.match(line)
    if not match:
        raise TraceFormatError(f"line {line_number}: cannot parse {raw_line!r}")
    op_name = match.group("op")
    if op_name not in _STD_KIND_BY_NAME:
        raise TraceFormatError(f"line {line_number}: unknown operation {op_name!r}")
    kind = _STD_KIND_BY_NAME[op_name]
    tid = int(match.group("tid"))
    target = _parse_target(kind, match.group("target"), line_number)
    return tuple.__new__(Event, (eid, tid, kind, target))


def std_token_shape(parts: List[str]) -> bool:
    """Whether a split STD line has the shape :class:`StdParser` caches.

    ``parts`` is a stripped, non-comment line split on ``|``.  The shape
    is two fields, or three whose location field is one whitespace-free
    token.  Such a line parses to a ``(tid, kind, target)`` that depends
    on its first two fields alone, whenever those two tokens are
    well-formed.  Every other line goes through the regex.
    """
    count = len(parts)
    if count == 3:
        # An all-digit location (the eid std_line writes) is one token.
        location = parts[2]
        return location.isdecimal() or len(location.split()) == 1
    return count == 2


class StdParser:
    """A caching STD-line parser: one instance per file (or stream).

    STD trace lines repeat massively — the same thread tokens, the same
    ``w(x)``/``acq(l)`` op tokens — so the parser memoizes both: thread
    tokens map to their parsed ids, op tokens to their ``(OpKind,
    target)`` pair with string targets interned via :func:`sys.intern`
    (equal variable/lock ids across a file share one string object).
    After the first occurrence, a repeated token costs a dict hit
    instead of a regex match and never re-hashes downstream.

    Only lines of the canonical fast shape (:func:`std_token_shape`)
    with well-formed tokens are served from the caches; anything
    unusual — stray ``|`` or parentheses in a target, a location of
    several tokens, malformed tids, unknown ops — falls back to
    :func:`parse_std_line`, whose regex path defines the format (and
    raises the canonical :class:`TraceFormatError`s), so the parser
    accepts and rejects exactly the same lines.  :meth:`cached` tells a
    caller that keys its own per-line work on the two tokens (the
    corpus's ingest) which lines the caches served.
    """

    __slots__ = ("_tid_cache", "_op_cache")

    def __init__(self) -> None:
        self._tid_cache: Dict[str, int] = {}
        self._op_cache: Dict[str, Tuple[OpKind, Optional[object]]] = {}

    def parse(self, raw_line: str, eid: int, line_number: int = 0) -> Optional[Event]:
        """Parse one line into an event (``None`` for blanks/comments)."""
        line = raw_line.strip()
        if not line or line[0] == "#":
            return None
        parts = line.split("|")
        if std_token_shape(parts):
            tid = self._tid_cache.get(parts[0])
            if tid is None:
                token = parts[0].strip()
                if len(token) > 1 and token[0] == "T" and token[1:].isdecimal():
                    tid = int(token[1:])
                    self._tid_cache[parts[0]] = tid
            if tid is not None:
                cached = self._op_cache.get(parts[1])
                if cached is None:
                    cached = self._parse_op_token(parts[1])
                if cached is not None:
                    # Skips the namedtuple's Python-level __new__ (see Event).
                    return tuple.__new__(Event, (eid, tid, cached[0], cached[1]))
        return parse_std_line(raw_line, eid, line_number)

    def cached(self, tid_token: str, op_token: str) -> bool:
        """Whether a line of these two tokens is served from the caches.

        True once both tokens have been parsed by :meth:`parse`; from
        then on every line of :func:`std_token_shape` with these tokens
        parses to the same ``(tid, kind, target)``, whatever its
        location field and eid.  False when one of them needs the regex.
        """
        return tid_token in self._tid_cache and op_token in self._op_cache

    def _parse_op_token(self, op_token: str) -> Optional[Tuple[OpKind, Optional[object]]]:
        """Parse + cache one canonical op token; ``None`` defers to the regex."""
        token = op_token.strip()
        if token.endswith(")"):
            name, separator, inner = token.partition("(")
            inner = inner[:-1]
            if not separator or "(" in inner or ")" in inner:
                return None
            kind = _STD_KIND_BY_NAME.get(name.strip())
            if kind is None:
                return None
            text = inner.strip()
            target: Optional[object]
            if kind in (OpKind.BEGIN, OpKind.END):
                target = None
            elif kind in (OpKind.FORK, OpKind.JOIN):
                cleaned = text[1:] if text[:1].upper() == "T" else text
                if not cleaned.isdecimal():
                    return None
                target = int(cleaned)
            elif text:
                target = sys.intern(text)
            else:
                return None
        else:
            kind = _STD_KIND_BY_NAME.get(token)
            if kind is None or kind not in (OpKind.BEGIN, OpKind.END):
                return None
            target = None
        entry = (kind, target)
        self._op_cache[op_token] = entry
        return entry


def iter_std(lines: Iterable[str]) -> Iterator[Event]:
    """Lazily parse STD-format lines into events (streaming counterpart of
    :func:`loads_std`).

    ``lines`` may be any iterable of text lines — an open file handle, a
    ``str.splitlines()`` result, a generator.  Events are yielded one at
    a time with consecutive ``eid`` values; nothing is buffered.  Parsing
    runs through a per-call :class:`StdParser` token cache.
    """
    parser = StdParser()
    parse = parser.parse
    eid = 0
    for line_number, raw_line in enumerate(lines, start=1):
        event = parse(raw_line, eid, line_number)
        if event is None:
            continue
        yield event
        eid += 1


def loads_std(text: str, name: str = "") -> Trace:
    """Parse a trace from the STD text format."""
    return Trace(iter_std(text.splitlines()), name=name)


# -- CSV format -----------------------------------------------------------------


def dumps_csv(trace: Trace) -> str:
    """Serialize a trace to CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["eid", "tid", "kind", "target"])
    for event in trace:
        writer.writerow([event.eid, event.tid, _STD_KIND_NAMES[event.kind], _target_to_text(event)])
    return buffer.getvalue()


class CsvParser:
    """A caching CSV-row parser: one instance per file (or stream).

    The CSV sibling of :class:`StdParser`: ``(kind, target)`` cell pairs
    and thread-id cells repeat throughout a file, so both are memoized
    (string targets interned) and a repeated row costs two dict hits.
    Malformed cells raise the same :class:`TraceFormatError`s as before
    — errors are never cached, so each occurrence reports its own line.
    """

    __slots__ = ("_tid_cache", "_op_cache")

    def __init__(self) -> None:
        self._tid_cache: Dict[str, int] = {}
        self._op_cache: Dict[Tuple[str, str], Tuple[OpKind, Optional[object]]] = {}

    def parse_row(self, row: List[str], eid: int, line_number: int) -> Event:
        """Parse one (non-blank, 4-column) data row into an event."""
        _, tid_text, kind_name, target_text = row
        cached = self._op_cache.get((kind_name, target_text))
        if cached is None:
            if kind_name not in _STD_KIND_BY_NAME:
                raise TraceFormatError(f"line {line_number}: unknown operation {kind_name!r}")
            kind = _STD_KIND_BY_NAME[kind_name]
            target = _parse_target(kind, target_text or None, line_number)
            if isinstance(target, str):
                target = sys.intern(target)
            cached = (kind, target)
            self._op_cache[(kind_name, target_text)] = cached
        tid = self._tid_cache.get(tid_text)
        if tid is None:
            tid = int(tid_text)
            self._tid_cache[tid_text] = tid
        return tuple.__new__(Event, (eid, tid, cached[0], cached[1]))


def iter_csv(lines: Iterable[str]) -> Iterator[Event]:
    """Lazily parse CSV-format lines into events (streaming counterpart of
    :func:`loads_csv`).

    Accepts any iterable of text lines (``csv.reader`` consumes it
    incrementally).  An empty input yields no events; otherwise the first
    row must be the ``eid,tid,kind,target`` header.  Parsing runs
    through a per-call :class:`CsvParser` cell cache.
    """
    reader = csv.reader(iter(lines))
    header_row = next(reader, None)
    if header_row is None:
        return
    header = [column.strip().lower() for column in header_row]
    expected = ["eid", "tid", "kind", "target"]
    if header != expected:
        raise TraceFormatError(f"unexpected CSV header {header!r}, expected {expected!r}")
    parser = CsvParser()
    eid = 0
    for line_number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise TraceFormatError(f"line {line_number}: expected 4 columns, got {len(row)}")
        yield parser.parse_row(row, eid, line_number)
        eid += 1


def loads_csv(text: str, name: str = "") -> Trace:
    """Parse a trace from the CSV format produced by :func:`dumps_csv`."""
    return Trace(iter_csv(io.StringIO(text)), name=name)


# -- file helpers ----------------------------------------------------------------

#: First two bytes of every gzip stream.
_GZIP_MAGIC = b"\x1f\x8b"

#: Bytes sniffed from the head of a file to recognize its format.
_SNIFF_BYTES = 4096


def _is_gzip_path(path: PathOrFile) -> bool:
    return isinstance(path, (str, Path)) and str(path).endswith(".gz")


def _read_prefix(path: Union[str, Path]) -> Optional[bytes]:
    """The first :data:`_SNIFF_BYTES` of ``path``, or ``None`` if unreadable."""
    try:
        with open(path, "rb") as handle:
            return handle.read(_SNIFF_BYTES)
    except OSError:
        return None


def _infer_from_name(path: PathOrFile) -> str:
    """Suffix-based format fallback (writing, pipes, unreadable paths)."""
    name = str(path)
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    if name.endswith(".colf"):
        return "colf"
    return "csv" if name.endswith(".csv") else "std"


def _sniff_text(prefix: bytes) -> Optional[str]:
    """Classify decompressed text head bytes as ``"std"`` / ``"csv"``."""
    text = prefix.decode("utf-8", errors="replace")
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.lower().replace(" ", "").startswith("eid,tid,kind,target"):
            return "csv"
        return "std"
    return None


def sniff_format(prefix: bytes, name: str = "") -> Optional[str]:
    """Classify the first bytes of a trace file by content.

    Returns ``"colf"``, ``"std"`` or ``"csv"`` when the head bytes are
    recognizable (a gzip stream is transparently peeked into), ``None``
    when there is nothing to go on (e.g. an empty file).  A gzipped
    colf container is rejected outright — colf files carry their own
    layout and random-access index, wrapping them in gzip would destroy
    the zero-copy contract, so that combination is always a mistake.
    """
    if not prefix:
        return None
    from .colfmt import is_colf_prefix  # local import: colfmt imports this module

    if is_colf_prefix(prefix):
        return "colf"
    if prefix[:2] == _GZIP_MAGIC:
        import zlib

        try:
            inner = zlib.decompressobj(wbits=31).decompress(prefix, _SNIFF_BYTES)
        except zlib.error:
            # Corrupt gzip head: let the decode path raise its canonical
            # gzip error instead of guessing a format here.
            return None
        if is_colf_prefix(inner):
            where = f"{name}: " if name else ""
            raise TraceFormatError(
                f"{where}gzipped colf containers are not supported — "
                f"colf files must be stored uncompressed"
            )
        return _sniff_text(inner)
    if prefix[:1] == _GZIP_MAGIC[:1]:
        return None  # torn gzip magic: undecidable, fall back to the name
    return _sniff_text(prefix)


def infer_format(path: PathOrFile) -> str:
    """Determine the trace format (``"std"``, ``"csv"`` or ``"colf"``).

    For a readable file path the decision is **content-based**: the
    head bytes are sniffed for the colf magic, the gzip magic (peeking
    at the decompressed content) and the CSV header line, so a
    misnamed trace — ``trace.std`` that is really CSV, a colf container
    named ``.bin``, a gzip file without ``.gz`` — still decodes
    correctly.  File-like objects, unreadable or not-yet-existing paths
    fall back to the suffix convention (``.colf`` → colf, ``.csv[.gz]``
    → CSV, anything else → STD).
    """
    if isinstance(path, (str, Path)):
        prefix = _read_prefix(path)
        if prefix:
            sniffed = sniff_format(prefix, name=str(path))
            if sniffed is not None:
                return sniffed
    return _infer_from_name(path)


def _is_gzip_content(source: PathOrFile) -> bool:
    """Whether ``source`` is a path whose bytes start with the gzip magic."""
    if not isinstance(source, (str, Path)):
        return False
    try:
        with open(source, "rb") as handle:
            return handle.read(2) == _GZIP_MAGIC
    except OSError:
        return _is_gzip_path(source)


def open_trace_text(path: Union[str, Path]) -> TextIO:
    """Open a text trace file for reading, gunzipping gzip content.

    Decompression keys off the *content* (gzip magic), not the suffix,
    so a misnamed gzip trace still decodes; the suffix only matters when
    the file cannot be read yet.  Lines split on universal newlines.
    """
    if _is_gzip_content(path):
        # gzip.open(..., "rt") would hand the text layer the raw
        # GzipFile, whose small reads dominate decode time on big
        # captures; a wide BufferedReader in between turns that into
        # ~1 MiB decompression spans.
        buffered = io.BufferedReader(gzip.open(path, "rb"), buffer_size=_GZIP_BUFFER_BYTES)
        return io.TextIOWrapper(buffered, encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, Path)):
        return open_trace_text(source), True
    return source, False


def _open_for_write(destination: PathOrFile):
    if isinstance(destination, (str, Path)):
        if _is_gzip_path(destination):
            return gzip.open(destination, "wt", encoding="utf-8"), True
        return open(destination, "w", encoding="utf-8"), True
    return destination, False


def save_trace(trace: Trace, destination: PathOrFile, fmt: str = "std") -> None:
    """Write a trace to a file or file-like object in the given format.

    ``fmt="colf"`` writes the binary columnar container (see
    :mod:`repro.trace.colfmt`); the destination must then be a path or
    a *binary* file-like object, and ``.gz`` wrapping does not apply.
    """
    if fmt == "colf":
        from .colfmt import write_colf

        write_colf(iter(trace), destination)
        return
    text = dumps_std(trace) if fmt == "std" else dumps_csv(trace) if fmt == "csv" else None
    if text is None:
        raise ValueError(f"unknown trace format {fmt!r}")
    handle, should_close = _open_for_write(destination)
    try:
        handle.write(text)
    finally:
        if should_close:
            handle.close()


def iter_trace_file(source: PathOrFile, fmt: Optional[str] = None) -> Iterator[Event]:
    """Stream events from a trace file without materializing a :class:`Trace`.

    The file (or file-like object) is opened lazily when iteration
    starts, decompressed on the fly for gzipped content, parsed line by
    line through :func:`iter_std` / :func:`iter_csv`, and closed when
    the iterator is exhausted or discarded.  With ``fmt=None`` the
    format is inferred by content sniffing (:func:`infer_format`).
    Binary colf containers never go through the text-open path: they
    are read via :mod:`repro.trace.colfmt` (mmap for paths).  Memory use
    is O(1) in the trace length for the text formats and O(segment) for
    colf.
    """
    if fmt is None:
        fmt = infer_format(source)
    if fmt == "colf":
        from .colfmt import ColfReader

        with ColfReader(source) as reader:
            yield from reader.iter_events()
        return
    if fmt == "std":
        parse = iter_std
    elif fmt == "csv":
        parse = iter_csv
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    handle, should_close = _open_for_read(source)
    try:
        yield from parse(handle)
    finally:
        if should_close:
            handle.close()


def iter_batches(
    events: Iterable[Event], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[List[Event]]:
    """Cut an event stream into lists of ``batch_size`` events.

    The one place batches are cut from a per-event stream: the text
    decoders (through :func:`iter_trace_chunks`) and the sources that
    only have ``events()`` (through
    :func:`repro.api.sources.iter_event_batches`) both go through it.
    The batches concatenate to exactly ``events``; the last one may be
    shorter, and an empty stream yields none.  An error raised by the
    stream propagates while its batch is being filled.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    iterator = iter(events)
    while True:
        batch = list(islice(iterator, batch_size))
        if not batch:
            return
        yield batch


def iter_trace_chunks(
    source: PathOrFile, fmt: Optional[str] = None, batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[EventBatch]:
    """Stream a trace file as batches of up to ``batch_size`` events.

    Text formats are :func:`iter_batches` over :func:`iter_trace_file`
    (lists of events); colf containers are cut natively into
    :class:`~repro.trace.event.ColumnBatch` batches straight from their
    columns (:func:`~repro.trace.colfmt.iter_colf_batches`), which are
    ``Sequence[Event]`` too but build their events only when asked.
    Either way the file is opened lazily and closed when the iteration
    ends, memory stays O(batch), the final chunk may be shorter, and an
    empty file yields no chunks.
    """
    if fmt is None:
        fmt = infer_format(source)
    if fmt == "colf":
        from .colfmt import iter_colf_batches

        return iter_colf_batches(source, batch_size=batch_size)
    return iter_batches(iter_trace_file(source, fmt=fmt), batch_size)


def load_trace(source: PathOrFile, fmt: str = "std", name: str = "") -> Trace:
    """Read a trace from a file or file-like object in the given format.

    A thin eager wrapper over :func:`iter_trace_file` — use that directly
    (or :class:`repro.api.FileSource`) to stream large traces without
    holding all events in memory.
    """
    return Trace(iter_trace_file(source, fmt=fmt), name=name)
