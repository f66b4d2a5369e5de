"""The line protocol spoken between ``repro serve`` and its clients.

One request or response per line, each a single JSON object encoded
UTF-8 and terminated by ``\\n`` — trivially debuggable with ``nc`` and
framing-safe because :func:`json.dumps` never emits raw newlines.  Every
request carries an ``op`` field; every response carries ``ok`` (and, on
failure, ``error``).  The protocol version travels in the ``ping``
response as ``proto`` = ``"repro-serve/3"``.  Version 2 paged the
digest-less ``results`` reply; version 3 moves a submitted trace out of
the ``submit`` frame into a chunked body that follows it.

Only ``submit`` has a body.  Its frame is followed by chunks, each a
``<decimal length>\\n`` line and that many bytes of UTF-8 trace text;
a ``0\\n`` line ends the body.  The server reads the body through
:class:`BodyReader` straight into the corpus ingest, so a submit costs
the server one read buffer, not the trace, and it reads every body to
its terminator before it answers.  A body line longer than 1 MiB (the
corpus's ``MAX_LINE_BYTES``) fails the submit; the body is still
drained, so the connection serves on.  The control frames stay one JSON
line each, so ``nc`` still speaks every op; a hand-typed submit adds its
text as, say, ``8`` then ``T1|w(x)\\n`` then ``0``.  A version-2
``submit``, whose ``text`` field carried the trace, is refused without
reading a body.

Request ops (see :mod:`repro.serve.server` for the authoritative
handlers):

``ping``
    Liveness + version handshake.
``submit``
    Whole-trace submission: the trace text (``fmt`` ``std`` or ``csv``)
    travels as the chunked body after the frame, is ingested
    content-addressed into the corpus, and one job per ``specs`` entry
    is queued.
``status`` / ``results``
    Scheduler counts / finished (trace × spec) payloads.  ``results``
    with a ``digest`` answers that trace's cells; without one it
    answers a page of cells in key order plus a ``next`` cursor (the
    page's last key, ``null`` after the last page), which the next
    request passes back as ``after``.
``stats``
    Runtime introspection for operators: uptime, queue depth,
    per-worker liveness/RSS/jobs-done, pool supervision tallies
    (crashes, timeouts, retries), throughput, and — unless the request
    carries ``metrics=false`` — a full snapshot of the server's metrics
    registry (:mod:`repro.obs.metrics`).  This is what
    ``repro status --watch`` polls.
``stream_begin`` / ``feed`` / ``stream_end``
    Streaming ingest: events arrive as STD lines (``line`` or a batched
    ``lines`` list) and each ``feed`` is analyzed by an incremental
    session before the server answers it, so every ``feed`` response
    carries the races its batch completed while the producer is still
    sending.  ``stream_begin`` may carry
    ``checkpoint=true`` (plus an optional ``checkpoint_every`` event
    cadence): the server then periodically persists the session's full
    analysis state so the stream survives a server crash.
``stream_resume``
    Re-open a checkpointed stream by ``name`` after a crash.  The
    response reports how many events the last durable checkpoint covers
    (the producer re-feeds from that offset) and the races already
    found; the connection then continues with ``feed``/``stream_end``
    as usual.
``shutdown``
    Graceful server stop.

Any request may additionally carry a ``trace`` field: a
W3C-``traceparent``-style string (``00-<trace_id>-<span_id>-<flags>``,
see :mod:`repro.obs.context`) propagating the client's distributed
trace context.  Servers parse it leniently — a malformed value is
ignored, never an error — and attach it to all work done for the
request, so spans recorded server- and worker-side parent under the
client's trace and ``repro obs timeline`` can reconstruct the job end
to end.  Responses to submission ops echo the ``trace_id``.

This module only frames and parses messages and bodies; it has no
socket or threading opinions, so both the server's ``rfile``/``wfile``
pair and the client's socket makefile handles use it symmetrically.  A
reader may bound the frame size (``read_message(stream, limit)``): the
server does for requests, clients read responses unbounded.  An
oversize frame or a malformed body loses the framing
(:class:`FramingError`): the server answers it, then hangs up.
"""

from __future__ import annotations

import io
import json
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional

#: Protocol identifier exchanged in the ``ping`` handshake.
PROTOCOL = "repro-serve/3"

#: Characters of text per body chunk a client sends.
BODY_CHUNK_CHARS = 64 * 1024

#: Longest chunk-size line a body reader accepts: 18 digits and ``\\n``.
_SIZE_LINE_LIMIT = 19

#: Default TCP port of ``repro serve`` (overridable; 0 = ephemeral).
DEFAULT_PORT = 7341


class ProtocolError(ValueError):
    """Raised when a peer sends something that is not a framed JSON object."""


class FramingError(ProtocolError):
    """The stream cannot be read on: the connection must close."""


class MessageTooLarge(FramingError):
    """Raised when a frame exceeds the reader's limit; the framing is lost."""


def encode_message(payload: Dict[str, object]) -> bytes:
    """One message as wire bytes (compact JSON + newline terminator)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def write_message(stream: BinaryIO, payload: Dict[str, object]) -> None:
    """Frame and send one message; flushes so the peer can respond."""
    stream.write(encode_message(payload))
    stream.flush()


def read_message(stream: BinaryIO, limit: Optional[int] = None) -> Optional[Dict[str, object]]:
    """Read one framed message; ``None`` on EOF (peer closed the stream).

    Blank lines are skipped (telnet users); anything else that fails to
    parse into a JSON *object* raises :class:`ProtocolError` — the
    connection-level framing is still intact, so servers answer with an
    error response and keep the connection alive.  With a ``limit``, a
    frame longer than ``limit`` bytes (newline included) raises
    :class:`MessageTooLarge` after reading at most ``limit + 1`` bytes of
    it; the rest of the frame is still unread, so the connection cannot
    continue.
    """
    while True:
        line = stream.readline() if limit is None else stream.readline(limit + 1)
        if not line:
            return None
        if limit is not None and len(line) > limit:
            raise MessageTooLarge(f"message exceeds the {limit}-byte frame limit")
        try:
            text = line.decode("utf-8") if isinstance(line, bytes) else line
        except UnicodeDecodeError as error:
            raise ProtocolError(f"message is not valid UTF-8: {error}") from error
        if text.isspace():  # a blank line, tested without copying the frame
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"message is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"message must be a JSON object, got {type(payload).__name__}"
            )
        return payload


def encode_chunks(pieces: Iterable[str]) -> Iterator[bytes]:
    """Text pieces, joined into body chunks of about :data:`BODY_CHUNK_CHARS` characters.

    ``surrogatepass`` encodes a lone surrogate; the server's decoder
    passes it on, so the ingest fails at the line that names it.
    """
    buffered: List[str] = []
    length = 0
    for piece in pieces:
        buffered.append(piece)
        length += len(piece)
        if length >= BODY_CHUNK_CHARS:
            yield "".join(buffered).encode("utf-8", "surrogatepass")
            buffered = []
            length = 0
    if buffered:
        yield "".join(buffered).encode("utf-8", "surrogatepass")


def write_body(stream: BinaryIO, chunks: Iterable[bytes]) -> None:
    """Send ``chunks`` as a chunked body and its ``0\\n`` terminator; flushes."""
    for chunk in chunks:
        if chunk:
            stream.write(b"%d\n%s" % (len(chunk), chunk))
    stream.write(b"0\n")
    stream.flush()


class BodyReader(io.RawIOBase):
    """The chunked body after a request frame, as a raw binary stream.

    Reads stop at the body's end: past the ``0\\n`` terminator it reports
    EOF and leaves the next frame unread.  A read asks the underlying
    stream for at most the caller's buffer, so the body is never held
    whole.  A malformed chunk-size line, or a stream that ends before
    the terminator, raises :class:`FramingError`, as does every read
    after it.
    """

    def __init__(self, stream: BinaryIO) -> None:
        super().__init__()
        self._stream = stream
        self._left = 0  # bytes left in the current chunk
        self._done = False
        self._error: Optional[str] = None

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:  # type: ignore[override]
        if self._error is not None:
            raise FramingError(self._error)
        if not len(buffer):
            return 0
        if not self._left:
            if self._done:
                return 0
            self._left = self._chunk_size()
            if not self._left:
                self._done = True
                return 0
        with memoryview(buffer) as view:
            read = self._stream.readinto(view[: self._left])  # type: ignore[attr-defined]
        if not read:
            self._fail("the body ended before its terminator")
        self._left -= read
        return read

    def _chunk_size(self) -> int:
        line = self._stream.readline(_SIZE_LINE_LIMIT)
        if not line:
            self._fail("the body ended before its terminator")
        if not (line.endswith(b"\n") and line[:-1].isdigit()):
            self._fail(f"malformed body chunk size {line!r}")
        return int(line)

    def _fail(self, message: str) -> None:
        self._error = message
        raise FramingError(message)

    def drain(self) -> None:
        """Read the rest of the body, up to and including its terminator."""
        while self.read(1 << 16):
            pass


def ok_response(**fields: object) -> Dict[str, object]:
    """A success response with extra payload fields."""
    response: Dict[str, object] = {"ok": True}
    response.update(fields)
    return response


def error_response(message: str, **fields: object) -> Dict[str, object]:
    """A failure response carrying a human-readable ``error``."""
    response: Dict[str, object] = {"ok": False, "error": message}
    response.update(fields)
    return response
