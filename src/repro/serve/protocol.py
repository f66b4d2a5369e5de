"""The line protocol spoken between ``repro serve`` and its clients.

One request or response per line, each a single JSON object encoded
UTF-8 and terminated by ``\\n`` — trivially debuggable with ``nc`` and
framing-safe because :func:`json.dumps` never emits raw newlines.  Every
request carries an ``op`` field; every response carries ``ok`` (and, on
failure, ``error``).  The protocol version travels in the ``ping``
response as ``proto`` = ``"repro-serve/1"``.

Request ops (see :mod:`repro.serve.server` for the authoritative
handlers):

``ping``
    Liveness + version handshake.
``submit``
    Whole-trace submission: the canonical trace text travels in the
    ``text`` field (JSON-escaped), is ingested content-addressed into
    the corpus, and one job per ``specs`` entry is queued.
``status`` / ``results``
    Scheduler counts / finished (trace × spec) payloads.
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

This module only frames and parses messages; it has no socket or
threading opinions, so both the server's ``rfile``/``wfile`` pair and
the client's socket makefile handles use it symmetrically.  A reader
may bound the frame size (``read_message(stream, limit)``): the server
does for requests, clients read responses unbounded.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Dict, Optional

#: Protocol identifier exchanged in the ``ping`` handshake.
PROTOCOL = "repro-serve/1"

#: Default TCP port of ``repro serve`` (overridable; 0 = ephemeral).
DEFAULT_PORT = 7341


class ProtocolError(ValueError):
    """Raised when a peer sends something that is not a framed JSON object."""


class MessageTooLarge(ProtocolError):
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
        if not text.strip():
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
