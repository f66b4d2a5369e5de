"""The thin client side of the analysis service.

:class:`ServeClient` wraps one TCP connection to a running
``repro serve`` in typed request helpers — one method per protocol op —
plus :meth:`wait_idle` polling for batch workflows.  Whole traces are
normalized client-side: :meth:`submit_file` parses the local STD/CSV
[.gz] file lazily and re-serializes it to canonical STD text, so the
bytes on the wire (and therefore the server-side content address) never
depend on the local file's format or compression.  A submitted trace
travels as the chunked body after its ``submit`` frame, so neither side
holds more of it than one chunk, whatever its size.

Streaming ingest gets its own small handle::

    with ServeClient("127.0.0.1", 7341) as client:
        stream = client.stream_begin("live-run", ["shb+tc+detect"])
        for event in events:
            reply = stream.feed(event)       # races stream back as found
        final = stream.end()

Every helper raises :class:`ServeClientError` on an error response, so
call sites read straight-line.

Every outgoing request is stamped with the active distributed trace
context (:mod:`repro.obs.context`) as a ``trace`` field; the submission
helpers mint a fresh context when none is active and echo its
``trace_id`` in their response, so a caller can later reconstruct the
job with ``repro obs timeline --trace <id>``.  With client-side tracing
enabled (``--obs-spans``), submissions additionally record a
``client.submit`` span that becomes the root of the merged trace tree.
"""

from __future__ import annotations

import errno
import random
import socket
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import context as obs_context
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..trace.event import Event
from ..trace.io import infer_format, iter_trace_file, std_line
from ..trace.trace import Trace
from .protocol import (
    BODY_CHUNK_CHARS,
    DEFAULT_PORT,
    ProtocolError,
    encode_chunks,
    read_message,
    write_body,
    write_message,
)

#: A request body: called once per attempt, so a retry re-sends it whole.
Body = Callable[[], Iterable[bytes]]


class ServeClientError(RuntimeError):
    """Raised when the server answers with an error (or the link breaks)."""


class _SourceFailed(Exception):
    """A request body's source raised (its ``__cause__``); the socket did not."""


def _source_chunks(body: Body) -> Iterator[bytes]:
    """``body()``'s chunks, with the source's own errors raised as :class:`_SourceFailed`."""
    try:
        yield from body()
    except Exception as error:
        raise _SourceFailed from error


def _std_lines(events: Iterable[Event]) -> Iterable[str]:
    """The canonical STD lines of ``events``, each with its newline."""
    return (std_line(event) + "\n" for event in events)


#: Errno values treated as transient connection faults worth a retry.
_TRANSIENT_ERRNOS = frozenset({errno.ECONNRESET, errno.ECONNREFUSED, errno.EPIPE})


def _is_transient(error: BaseException) -> bool:
    """Connection faults a reconnect can plausibly fix.

    Resets, refusals and broken pipes are what a restarting or
    momentarily overloaded server looks like from outside; protocol
    garbage and timeouts are not retried (a timeout may mean the op is
    still running — retrying it could double work).
    """
    if isinstance(error, socket.timeout):
        return False
    if isinstance(
        error,
        (
            ConnectionResetError,
            ConnectionRefusedError,
            ConnectionAbortedError,
            BrokenPipeError,
        ),
    ):
        return True
    return isinstance(error, OSError) and error.errno in _TRANSIENT_ERRNOS


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` string (bare host defaults the port)."""
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        try:
            return host or "127.0.0.1", int(port_text)
        except ValueError as error:
            raise ValueError(f"invalid address {text!r}: port must be an integer") from error
    return text or "127.0.0.1", DEFAULT_PORT


class ServeClient:
    """One connection to a running trace-analysis server.

    Connection establishment and *idempotent* requests ride a bounded
    exponential backoff with full jitter: a reset or refused connection
    (a restarting server, a chaos-killed socket) is reconnected and the
    request replayed up to ``retries`` times.  Only the read-only /
    idempotent ops in :attr:`RETRYABLE_OPS` are ever replayed —
    ``submit`` and ``analyze`` are idempotent by content address, but a
    stream ``feed`` is not (replaying one could double-feed events), so
    stream ops always surface their transient as an error and the
    caller resumes explicitly via :meth:`stream_resume`.
    """

    #: Ops safe to replay after a transient connection fault: reads,
    #: plus the content-addressed (hence idempotent) submission ops.
    RETRYABLE_OPS = frozenset(
        {"ping", "status", "stats", "results", "submit", "analyze"}
    )

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_max = backoff_max
        # Seedable jitter so chaos tests replay an exact retry schedule.
        self._rng = random.Random(retry_seed)
        self._socket: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._connect()

    @classmethod
    def connect(cls, address: str, timeout: float = 30.0, **kwargs: object) -> "ServeClient":
        """Connect to a ``host:port`` string."""
        host, port = parse_address(address)
        return cls(host, port, timeout=timeout, **kwargs)  # type: ignore[arg-type]

    def _connect_once(self) -> None:
        self._socket = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        self._socket.settimeout(self.timeout)
        # A submit is a frame and then its body, in separate writes.  With
        # Nagle's algorithm on, the body's last small segment waits for
        # the server to acknowledge the frame, which it delays (~40 ms on
        # Linux) in the hope of sending a reply it cannot send yet.
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._socket.makefile("rb")
        self._wfile = self._socket.makefile("wb")

    def _connect(self) -> None:
        """Establish the connection, retrying transient refusals."""
        attempt = 0
        while True:
            try:
                self._connect_once()
                return
            except OSError as error:
                self._teardown()
                if attempt >= self.retries or not _is_transient(error):
                    raise
                attempt += 1
                self._count_retry("retry")
                self._backoff_sleep(attempt)

    def _teardown(self) -> None:
        """Drop the (possibly broken) connection; a retry reconnects."""
        for stream in (self._rfile, self._wfile):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._rfile = None
        self._wfile = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def _backoff_sleep(self, attempt: int) -> None:
        """Full-jitter exponential backoff: sleep U(0, min(cap, base·2^n))."""
        ceiling = min(self.backoff_max, self.backoff * (2 ** (attempt - 1)))
        time.sleep(self._rng.uniform(0.0, ceiling))

    @staticmethod
    def _count_retry(outcome: str) -> None:
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.counter("client.retries", outcome=outcome).inc()

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------------------

    def _roundtrip(
        self, payload: Dict[str, object], body: Optional[Body] = None
    ) -> Dict[str, object]:
        if self._wfile is None or self._rfile is None:
            self._connect_once()
        try:
            write_message(self._wfile, payload)
            if body is not None:
                write_body(self._wfile, _source_chunks(body))
        except OSError:
            # A server refusing an oversize frame answers, then hangs up
            # while the request is still being sent: report its answer.
            try:
                response = read_message(self._rfile)
            except (ProtocolError, OSError):
                response = None
            if response is None:
                raise
            self._teardown()
            return response
        response = read_message(self._rfile)
        if response is None:
            # EOF mid-request is the graceful spelling of a reset: the
            # server went away between our write and its reply.
            raise ConnectionResetError(
                f"server {self.host}:{self.port} closed the connection"
            )
        return response

    def request(
        self, payload: Dict[str, object], body: Optional[Body] = None
    ) -> Dict[str, object]:
        """Send one request, read one response; raises on error responses.

        The single stamp point for trace propagation: whatever context
        is active (an open client span, or one attached by a submission
        helper) rides out as the message's ``trace`` field.  Transient
        connection faults on :attr:`RETRYABLE_OPS` reconnect and replay
        under the client's backoff budget.  ``body`` gives the chunks
        sent after the frame (``submit``); each attempt calls it anew, and
        an error reply to it drops the connection.
        """
        obs_context.stamp_message(payload)
        op = payload.get("op")
        retryable = isinstance(op, str) and op in self.RETRYABLE_OPS
        attempt = 0
        retried = False
        while True:
            try:
                response = self._roundtrip(payload, body)
            except _SourceFailed as failure:
                # The body's own source failed part-way: the server cannot
                # find the next frame, so this connection is done.
                self._teardown()
                raise failure.__cause__  # type: ignore[misc]
            except (ProtocolError, OSError) as error:
                self._teardown()
                if not (retryable and attempt < self.retries and _is_transient(error)):
                    if retried:
                        self._count_retry("exhausted")
                    raise ServeClientError(
                        f"connection to {self.host}:{self.port} failed: {error}"
                    ) from error
                attempt += 1
                retried = True
                self._count_retry("retry")
                self._backoff_sleep(attempt)
                continue
            if retried:
                self._count_retry("recovered")
            if not response.get("ok"):
                if body is not None:
                    # A server that refused the frame may read the body as
                    # frames (a repro-serve/2 one does); a reconnect loses
                    # nothing, as a repro-serve/3 one has drained it.
                    self._teardown()
                raise ServeClientError(str(response.get("error", "unknown server error")))
            return response

    # -- ops ---------------------------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "ping"})

    def status(
        self, detail: bool = False, jobs: Optional[Sequence[str]] = None
    ) -> Dict[str, object]:
        request: Dict[str, object] = {"op": "status", "detail": detail}
        if jobs is not None:
            request["jobs"] = list(jobs)
        return self.request(request)

    def stats(self, metrics: bool = True) -> Dict[str, object]:
        """The server's runtime-introspection payload (the ``stats`` op).

        Returns the ``stats`` object: uptime, queue depth,
        per-worker rows, pool supervision tallies, throughput, and (with
        ``metrics=True``) the metrics-registry snapshot.
        """
        response = self.request({"op": "stats", "metrics": metrics})
        return response["stats"]  # type: ignore[return-value]

    def results(self, digest: Optional[str] = None) -> Dict[str, Dict[str, object]]:
        """One trace's finished cells by spec, or every cell by ``digest:spec``.

        Without a digest the server answers a page at a time; this
        follows each reply's ``next`` cursor until the last page.
        """
        if digest is not None:
            response = self.request({"op": "results", "digest": digest})
            return response["results"]  # type: ignore[return-value]
        results: Dict[str, Dict[str, object]] = {}
        request: Dict[str, object] = {"op": "results"}
        while True:
            response = self.request(request)
            results.update(response["results"])  # type: ignore[arg-type]
            cursor = response.get("next")
            if cursor is None:
                return results
            request = {"op": "results", "after": cursor}

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "shutdown"})

    def submit_text(
        self,
        text: str,
        specs: Sequence[str],
        fmt: str = "std",
        name: Optional[str] = None,
        tags: Sequence[str] = (),
        force: bool = False,
    ) -> Dict[str, object]:
        """Submit raw trace text for ingest + analysis."""
        step = BODY_CHUNK_CHARS
        return self._submit(
            lambda: (text[at : at + step] for at in range(0, len(text), step)),
            specs,
            fmt=fmt,
            name=name,
            tags=tags,
            force=force,
        )

    def submit_trace(
        self,
        trace: Trace,
        specs: Sequence[str],
        name: Optional[str] = None,
        tags: Sequence[str] = (),
        force: bool = False,
    ) -> Dict[str, object]:
        """Submit an in-memory trace (serialized to canonical STD text)."""
        name = name or trace.name or None
        return self._submit(lambda: _std_lines(trace), specs, name=name, tags=tags, force=force)

    def analyze(
        self, digest: str, specs: Sequence[str], force: bool = False
    ) -> Dict[str, object]:
        """Queue (trace × spec) jobs for a trace already in the server's corpus."""
        ctx = obs_context.active_context() or obs_context.new_context()
        with obs_context.use_context(ctx):
            with obs_tracing.span("client.submit", op="analyze", digest=digest[:12]):
                response = self.request(
                    {"op": "analyze", "digest": digest, "specs": list(specs), "force": force}
                )
        response.setdefault("trace_id", ctx.trace_id)
        return response

    def submit_file(
        self,
        path: Union[str, Path],
        specs: Sequence[str],
        name: Optional[str] = None,
        tags: Sequence[str] = (),
        force: bool = False,
    ) -> Dict[str, object]:
        """Submit a local STD/CSV[.gz] trace file.

        The file is parsed lazily and re-serialized to canonical STD, so
        format and compression never leak into the content address.  Its
        lines stream out as the submit body while the file is read, so
        neither side holds the trace, whatever its size; a retry re-opens
        the file.
        """
        return self._submit(
            lambda: _std_lines(iter_trace_file(path, fmt=infer_format(path))),
            specs,
            name=name or Path(path).name,
            tags=tags,
            force=force,
        )

    def _submit(
        self,
        pieces: Callable[[], Iterable[str]],
        specs: Sequence[str],
        fmt: str = "std",
        name: Optional[str] = None,
        tags: Sequence[str] = (),
        force: bool = False,
    ) -> Dict[str, object]:
        """One ``submit``: its frame, then ``pieces()`` of text as the body."""
        request: Dict[str, object] = {
            "op": "submit",
            "fmt": fmt,
            "specs": list(specs),
            "tags": list(tags),
            "force": force,
        }
        if name is not None:
            request["name"] = name
        ctx = obs_context.active_context() or obs_context.new_context()
        with obs_context.use_context(ctx):
            with obs_tracing.span("client.submit", trace=name or "", specs=len(specs)):
                response = self.request(request, body=lambda: encode_chunks(pieces()))
        response.setdefault("trace_id", ctx.trace_id)
        return response

    # -- streaming ingest --------------------------------------------------------------

    def stream_begin(
        self,
        name: str,
        specs: Sequence[str],
        save: bool = False,
        checkpoint: bool = False,
        checkpoint_every: Optional[int] = None,
    ) -> "StreamHandle":
        """Open a streaming-ingest session on this connection.

        The stream pins one trace context for its whole lifetime: every
        ``feed`` and the final ``stream_end`` carry the same ``trace``
        field, so the server-side walk parents all its spans under one
        trace no matter how many messages the ingest took.

        With ``checkpoint=True`` the server durably snapshots the
        stream's analysis state every ``checkpoint_every`` events; after
        a server crash, :meth:`stream_resume` reopens the stream at the
        last snapshot.
        """
        ctx = obs_context.active_context() or obs_context.new_context()
        request: Dict[str, object] = {
            "op": "stream_begin",
            "name": name,
            "specs": list(specs),
            "save": save,
        }
        if checkpoint:
            request["checkpoint"] = True
            if checkpoint_every is not None:
                request["checkpoint_every"] = int(checkpoint_every)
        obs_context.stamp_message(request, ctx)
        self.request(request)
        return StreamHandle(self, context=ctx)

    def stream_resume(self, name: str) -> Tuple["StreamHandle", Dict[str, object]]:
        """Reopen a checkpointed stream at its last durable snapshot.

        Returns ``(handle, response)``: ``handle.events_sent`` is the
        number of events the checkpoint covers — re-feed the source from
        that offset — and the response carries the races the resumed
        session had already found.
        """
        ctx = obs_context.active_context() or obs_context.new_context()
        request: Dict[str, object] = {"op": "stream_resume", "name": name}
        obs_context.stamp_message(request, ctx)
        response = self.request(request)
        handle = StreamHandle(self, context=ctx)
        handle.events_sent = int(response.get("events", 0))  # type: ignore[arg-type]
        return handle, response

    # -- polling -----------------------------------------------------------------------

    def wait_idle(self, timeout: float = 60.0, poll: float = 0.1) -> Dict[str, object]:
        """Poll ``status`` until no job is pending or running *server-wide*.

        Useful for single-tenant batch scripts and tests; a client that
        only cares about its own submission should use
        :meth:`wait_for_jobs` instead, which is immune to other clients'
        backlogs.  Returns the final status response; raises
        :class:`ServeClientError` when the server is still busy after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status()
            scheduler = status["scheduler"]
            jobs = scheduler["jobs"]  # type: ignore[index]
            busy = jobs["pending"] + jobs["running"]  # type: ignore[index]
            if busy == 0:
                return status
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"server still has {busy} unfinished jobs after {timeout}s"
                )
            time.sleep(poll)

    def wait_for_jobs(
        self, job_ids: Sequence[str], timeout: float = 120.0, poll: float = 0.1
    ) -> List[Dict[str, object]]:
        """Poll until the given jobs reach a terminal state (done, failed, quarantined).

        Returns the job rows in ``job_ids`` order — callers must inspect
        each row's ``status``/``error``, since a failed job is a normal
        terminal outcome here, not an exception.  Only waits on the
        caller's own jobs, so another client's backlog cannot time this
        call out.  Raises :class:`ServeClientError` when some job is
        still unfinished after ``timeout`` seconds.

        A job id the server no longer lists counts as terminal with
        status ``"unknown"``: ids are registered synchronously at
        submission and only *terminal* jobs are ever pruned from the
        history, so absence means the job finished long enough ago to be
        pruned (its result, if successful, is still in the results
        store).
        """
        wanted = list(job_ids)
        if not wanted:
            return []
        deadline = time.monotonic() + timeout
        while True:
            # The server filters the job list to just our ids, so each
            # poll costs O(len(wanted)), not O(server history).
            status = self.status(jobs=wanted)
            rows = {
                str(row["job_id"]): row
                for row in status["scheduler"]["job_list"]  # type: ignore[index]
            }
            unfinished = [
                job_id
                for job_id in wanted
                if job_id in rows
                and rows[job_id].get("status") not in ("done", "failed", "quarantined")
            ]
            if not unfinished:
                return [
                    rows.get(job_id, {"job_id": job_id, "status": "unknown", "error": None})
                    for job_id in wanted
                ]
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"{len(unfinished)} of {len(wanted)} submitted jobs still "
                    f"unfinished after {timeout}s: {unfinished[:5]}"
                )
            time.sleep(poll)


class StreamHandle:
    """A live streaming-ingest session (one per connection)."""

    def __init__(
        self, client: ServeClient, context: Optional[obs_context.TraceContext] = None
    ) -> None:
        self._client = client
        self._context = context
        self.events_sent = 0

    @property
    def trace_id(self) -> Optional[str]:
        """The distributed trace id pinned to this stream, if any."""
        return self._context.trace_id if self._context is not None else None

    def feed(self, event: Event) -> Dict[str, object]:
        """Send one event; the response carries races found since the last call."""
        return self.feed_lines([std_line(event)])

    def feed_events(self, events: Iterable[Event], batch: int = 64) -> List[Dict[str, object]]:
        """Send many events in batched ``feed`` messages; returns the replies.

        Each batch is one frame, so it must fit the server's
        ``MAX_REQUEST_BYTES`` (1 MiB).
        """
        replies: List[Dict[str, object]] = []
        pending: List[str] = []
        for event in events:
            pending.append(std_line(event))
            if len(pending) >= batch:
                replies.append(self.feed_lines(pending))
                pending = []
        if pending:
            replies.append(self.feed_lines(pending))
        return replies

    def feed_lines(self, lines: Sequence[str]) -> Dict[str, object]:
        """Send raw STD lines (the wire-level form of :meth:`feed`).

        The lines travel in one frame, which must fit the server's
        ``MAX_REQUEST_BYTES`` (1 MiB); a larger one is refused and the
        server hangs up.
        """
        request: Dict[str, object] = {"op": "feed", "lines": list(lines)}
        if self._context is not None:
            obs_context.stamp_message(request, self._context)
        response = self._client.request(request)
        self.events_sent = int(response.get("events", self.events_sent))  # type: ignore[arg-type]
        return response

    def end(self, tags: Sequence[str] = ()) -> Dict[str, object]:
        """Close the stream; the response carries the final per-spec results."""
        request: Dict[str, object] = {"op": "stream_end"}
        if tags:
            request["tags"] = list(tags)
        if self._context is not None:
            obs_context.stamp_message(request, self._context)
        response = self._client.request(request)
        if self._context is not None:
            response.setdefault("trace_id", self._context.trace_id)
        return response
