"""The :class:`TraceServer`: the TCP front end of the analysis service.

A :class:`socketserver.ThreadingTCPServer` speaking the line protocol of
:mod:`repro.serve.protocol`, one thread per connection, all threads
sharing one :class:`~repro.serve.corpus.TraceCorpus`, one
:class:`~repro.serve.jobs.Scheduler` (with its worker-process pool) and
one :class:`~repro.serve.results.ResultsStore`.

Two ingestion shapes:

* **whole-trace submission** (``submit``) — the trace text is ingested
  content-addressed into the corpus and (trace × spec) jobs fan out
  across the worker pool; results are read back with ``results``.
* **streaming ingest** (``stream_begin`` / ``feed`` / ``stream_end``) —
  events arrive one STD line at a time (or batched) and each ``feed``
  is analyzed by an incremental :class:`~repro.api.Session` in the
  connection's handler thread before its reply goes out, so each reply
  carries the races its batch completed *while the producer is still
  sending*, exactly the online-detection story of ``repro capture``,
  but across a socket.  With ``save=true`` the streamed events are
  additionally ingested into the corpus at stream end.
"""

from __future__ import annotations

import gzip
import os
import socketserver
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.result import Race
from ..analysis.serial import race_from_record, race_to_record
from ..api import Session
from ..api.spec import coerce_spec
from ..cli_util import package_version
from ..obs import context as obs_context
from ..obs import metrics as obs_metrics
from ..obs import proc as obs_proc
from ..obs import tracing as obs_tracing
from ..obs.logging import get_logger
from ..recovery import (
    JobJournal,
    JournalRecord,
    QuarantineStore,
    SnapshotError,
    read_journal,
    read_snapshot,
    replay_journal,
    snapshot_path_for_stream,
    write_snapshot,
)
from ..trace.event import Event
from ..trace.io import StdParser, TraceFormatError, std_line
from .corpus import CorpusError, TraceCorpus
from .jobs import Scheduler
from .protocol import (
    PROTOCOL,
    MessageTooLarge,
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)
from .results import ResultsStore

log = get_logger("serve")

#: Largest request frame the server reads, in bytes.  Twice
#: ``ServeClient.STREAM_THRESHOLD_BYTES``: past that much STD text,
#: ``submit_file`` already streams instead of sending one frame.
MAX_REQUEST_BYTES = 64 * 1024 * 1024


class _StreamState:
    """One connection's streaming-ingest session.

    Events are analyzed inline, in the connection's handler thread: when
    a ``feed`` returns, the session has absorbed its whole batch, so the
    reply carries every race that batch completed.  Memory is bounded in
    both directions: the handler reads the next frame only after it has
    analyzed the current one (backpressure through the socket, one frame
    of at most ``MAX_REQUEST_BYTES`` at a time), and ``save=true`` spools
    the incoming events to a gzipped file instead of keeping them in
    RAM, so streaming a multi-gigabyte trace costs O(frame) memory.

    Between two ``feed`` messages the session is quiescent, so every
    piece of state (engine clocks, detector maps, spool byte offset,
    reported races) refers to the same event prefix.  A checkpointed
    stream (``checkpoint=true`` at ``stream_begin``) uses that: every
    ``checkpoint_every`` events the spool's gzip member is closed and a
    versioned snapshot is atomically replaced on disk; after a ``kill
    -9`` of the server, ``stream_resume`` rebuilds the stream at the
    last checkpoint and tells the producer which event offset to re-feed
    from.
    """

    #: Default events between checkpoints when the client enables
    #: checkpointing without choosing a cadence.
    CHECKPOINT_EVERY = 1024

    def __init__(
        self,
        name: str,
        specs: Sequence[str],
        save: bool,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
    ) -> None:
        self.name = name
        self.save = save
        self.spec_keys = [coerce_spec(spec).key for spec in specs]
        self._races: List[Race] = []
        self.events_sent = 0
        # One caching parser per stream: the thread/op tokens of a live
        # trace repeat as heavily as a file's, so after warmup each
        # incoming line costs dict hits instead of a regex match.
        self._parser = StdParser()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self._last_checkpoint_events = 0
        self.snapshot_path: Optional[Path] = None
        if self.checkpoint_dir is not None:
            self.snapshot_path = snapshot_path_for_stream(self.checkpoint_dir, name)
        self.spool_path: Optional[Path] = None
        self._spool = None
        if save:
            if self.snapshot_path is not None:
                # Checkpointed spools need a durable, deterministic home:
                # a resumed stream must find the bytes the crashed server
                # already spooled, so the spool lives next to its
                # snapshot instead of in a fresh temp file.
                self.spool_path = self.snapshot_path.with_name(
                    self.snapshot_path.stem + ".std.gz"
                )
                self.spool_path.parent.mkdir(parents=True, exist_ok=True)
                self._spool = gzip.open(self.spool_path, "wt", encoding="utf-8")
            else:
                handle, raw_path = tempfile.mkstemp(
                    prefix="repro-stream-", suffix=".std.gz"
                )
                os.close(handle)
                self.spool_path = Path(raw_path)
                self._spool = gzip.open(self.spool_path, "wt", encoding="utf-8")
        self._error: Optional[BaseException] = None
        # Ingest-only streams (no specs, save=true) have no session:
        # events only flow to the spool.  This is the bounded-memory
        # upload path big `repro submit`s use before `analyze`.
        self.session: Optional[Session] = None
        if self.spec_keys:
            self.session = Session(self.spec_keys, on_race=self._races.append)
            self.session.begin(name=name)

    @classmethod
    def resume(cls, name: str, checkpoint_dir: Union[str, Path]) -> "_StreamState":
        """Rebuild a checkpointed stream from its last on-disk snapshot.

        Raises :class:`SnapshotError` when no usable checkpoint exists,
        and ``ValueError`` when the session refuses the snapshot's
        engine state (e.g. a payload of an older version).  Only a
        snapshot the session accepted touches the save spool: it is then
        truncated back to the byte offset the snapshot recorded — events
        spooled after the checkpoint were never durably acknowledged and
        will be re-fed by the producer.
        """
        path = snapshot_path_for_stream(checkpoint_dir, name)
        payload = read_snapshot(path)
        if payload.get("name") != name:
            raise SnapshotError(
                f"{path} checkpoints stream {payload.get('name')!r}, not {name!r}"
            )
        specs = [str(spec) for spec in payload.get("specs") or []]
        every = int(payload.get("checkpoint_every") or cls.CHECKPOINT_EVERY)
        # Construct with save=False — opening the spool "wt" here would
        # truncate the very bytes the resume needs — then re-attach it.
        state = cls(name, specs, save=False, checkpoint_dir=checkpoint_dir, checkpoint_every=every)
        session_state = payload.get("session")
        if state.session is not None:
            if not isinstance(session_state, dict):
                raise SnapshotError(f"checkpoint {path} carries no session state")
            state.session.restore(session_state)
        state.save = bool(payload.get("save"))
        if state.save:
            spool_bytes = int(payload.get("spool_bytes") or 0)
            spool_path = path.with_name(path.stem + ".std.gz")
            if not spool_path.exists():
                raise SnapshotError(f"checkpoint {path} references a missing spool")
            if spool_path.stat().st_size < spool_bytes:
                raise SnapshotError(
                    f"spool {spool_path} is shorter than its checkpoint recorded"
                )
            with open(spool_path, "rb+") as handle:
                handle.truncate(spool_bytes)
            state.spool_path = spool_path
            # Appending opens a new gzip member; readers concatenate
            # members transparently, so the final ingest sees one trace.
            state._spool = gzip.open(spool_path, "at", encoding="utf-8")
        state.events_sent = int(payload.get("events") or 0)
        state._last_checkpoint_events = state.events_sent
        races = payload.get("races")
        if isinstance(races, list):
            # In place: the session's on_race appends to this very list.
            state._races[:] = [race_from_record(record) for record in races]
        return state

    def checkpoint_now(self) -> Path:
        """Write one atomic checkpoint: spool offset + full session state."""
        if self.snapshot_path is None:
            raise RuntimeError("stream was not opened with checkpoint=true")
        spool_bytes = None
        if self._spool is not None:
            # Close the member so the bytes on disk form a complete gzip
            # archive ending exactly at the checkpointed event.
            self._spool.close()
            spool_bytes = os.path.getsize(self.spool_path)  # type: ignore[arg-type]
            self._spool = gzip.open(self.spool_path, "at", encoding="utf-8")
        payload: Dict[str, object] = {
            "name": self.name,
            "specs": list(self.spec_keys),
            "save": self.save,
            "checkpoint_every": self.checkpoint_every,
            "events": self.events_sent,
            "spool_bytes": spool_bytes,
            "races": [race_to_record(race) for race in self._races],
            "session": self.session.checkpoint() if self.session is not None else None,
        }
        self._last_checkpoint_events = self.events_sent
        return write_snapshot(self.snapshot_path, payload)

    def feed_lines(self, lines: Sequence[str]) -> List[Event]:
        """Parse a batch of STD lines, analyze it, then spool and count it.

        The whole batch is parsed first (through the per-stream token
        cache) and fed to the session as one ``feed_batch``.  When this
        returns, the session has absorbed the batch, the races it
        completed are in :meth:`races_since`, and a checkpoint taken
        here covers exactly these events.  Returns the parsed events
        (blanks/comments excluded).

        A *malformed line* rejects the whole message before anything is
        fed: the producer can repair the bad line and resend the entire
        message without double-feeding.  A batch whose *analysis* raises
        marks the stream failed; later feeds and :meth:`finish` report
        that failure.
        """
        if self._error is not None:
            raise RuntimeError(f"stream analysis failed: {self._error}")
        parse = self._parser.parse
        eid = self.events_sent
        events: List[Event] = []
        for line in lines:
            event = parse(line, eid, eid + 1)
            if event is None:
                continue
            events.append(event)
            eid += 1
        if not events:
            return events
        if self.session is not None:
            try:
                self.session.feed_batch(events)
            except BaseException as error:
                self._error = error
                raise
        if self._spool is not None:
            self._spool.write("".join(std_line(event) + "\n" for event in events))
        self.events_sent = eid
        if (
            self.snapshot_path is not None
            and self.checkpoint_every > 0
            and self.events_sent - self._last_checkpoint_events >= self.checkpoint_every
        ):
            self.checkpoint_now()
        return events

    def races_since(self, cursor: int) -> Tuple[List[Dict[str, object]], int]:
        """Races reported after ``cursor``, plus the new cursor."""
        fresh = [race.as_dict() for race in self._races[cursor:]]
        return fresh, len(self._races)

    def finish(self):
        """Close the stream; returns the SessionResult.

        Ingest-only streams (no specs) have no session and return ``None``.
        """
        if self._spool is not None:
            self._spool.close()
            self._spool = None
        if self._error is not None:
            raise RuntimeError(f"stream analysis failed: {self._error}")
        result = self.session.finish() if self.session is not None else None
        self.discard_snapshot()
        return result

    def discard_spool(self) -> None:
        """Delete the save spool (after ingest, or on teardown)."""
        if self._spool is not None:
            self._spool.close()
            self._spool = None
        if self.spool_path is not None:
            self.spool_path.unlink(missing_ok=True)
            self.spool_path = None

    def discard_snapshot(self) -> None:
        """Delete the checkpoint snapshot (the stream finished cleanly)."""
        if self.snapshot_path is not None:
            self.snapshot_path.unlink(missing_ok=True)

    def abort(self) -> None:
        """Tear down a stream whose connection died mid-send.

        A checkpointed stream is *kept*, not torn down: its last (or a
        freshly attempted) snapshot and the spool it references stay on
        disk so ``stream_resume`` can pick the stream back up.
        """
        if self.snapshot_path is not None:
            try:
                if self._error is None:
                    self.checkpoint_now()
            except Exception as error:  # noqa: BLE001 - best-effort final snapshot
                log.warning("final checkpoint of stream %r failed: %s", self.name, error)
            if self._spool is not None:
                self._spool.close()
                self._spool = None
        else:
            self.discard_spool()


class ServeHandler(socketserver.StreamRequestHandler):
    """One connection: read framed requests, answer framed responses."""

    server: "TraceServer"

    def setup(self) -> None:
        super().setup()
        self._stream: Optional[_StreamState] = None
        self._race_cursor = 0

    def handle(self) -> None:
        while True:
            try:
                request = read_message(self.rfile, MAX_REQUEST_BYTES)
            except MessageTooLarge as error:
                # The rest of the frame is unread: answer, then hang up.
                try:
                    write_message(self.wfile, error_response(str(error)))
                except (ConnectionError, OSError):
                    pass
                return
            except ProtocolError as error:
                write_message(self.wfile, error_response(str(error)))
                continue
            except (ConnectionError, OSError):
                return
            if request is None:
                return
            op = request.get("op")
            handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
            if handler is None:
                response = error_response(f"unknown op {op!r}")
            else:
                # Context propagation: the request's traceparent (if any)
                # becomes the ambient context for everything this op does
                # — the serve.op.* span parents under it (a stream's
                # analysis runs inside serve.op.feed), and scheduler jobs
                # handed onward capture it.
                remote = obs_context.context_from_message(request)
                token = (
                    obs_context.attach_context(remote) if remote is not None else None
                )
                try:
                    with obs_tracing.span(f"serve.op.{op}", op=str(op)):
                        response = handler(request)
                except (CorpusError, TraceFormatError, ValueError) as error:
                    response = error_response(str(error))
                except Exception as error:  # noqa: BLE001 - keep the server alive
                    log.warning("internal error handling %r: %s", op, error)
                    response = error_response(f"internal error: {type(error).__name__}: {error}")
                finally:
                    if token is not None:
                        obs_context.detach_context(token)
            registry = self.server.obs_registry
            if registry is not None:
                registry.counter("server.requests", op=str(op)).inc()
                if not response.get("ok"):
                    registry.counter("server.errors", op=str(op)).inc()
            try:
                write_message(self.wfile, response)
            except (ConnectionError, OSError):
                return
            if op == "shutdown" and response.get("ok"):
                self.server.begin_shutdown()
                return

    def finish(self) -> None:
        if self._stream is not None:
            self._stream.abort()
            self._stream = None
        super().finish()

    # -- simple ops --------------------------------------------------------------------

    def _op_ping(self, request: Dict[str, object]) -> Dict[str, object]:
        return ok_response(
            proto=PROTOCOL,
            server="repro.serve",
            version=package_version(),
            uptime_seconds=round(time.time() - self.server.started_unix, 3),
        )

    def _op_status(self, request: Dict[str, object]) -> Dict[str, object]:
        detail = bool(request.get("detail", False))
        job_ids = request.get("jobs")
        if job_ids is not None and not isinstance(job_ids, list):
            return error_response("status 'jobs' must be a list of job ids")
        return ok_response(
            proto=PROTOCOL,
            corpus=self.server.corpus.summary(),
            scheduler=self.server.scheduler.status_snapshot(
                detail=detail,
                job_ids=[str(job_id) for job_id in job_ids] if job_ids is not None else None,
            ),
            recovery={
                "journal": str(self.server.journal.path),
                "jobs_recovered": len(self.server.recovered_jobs),
                "quarantined": len(self.server.quarantine),
            },
        )

    def _op_stats(self, request: Dict[str, object]) -> Dict[str, object]:
        """Runtime introspection: queue, fleet, throughput, metrics snapshot.

        The live-dashboard op behind ``repro status --watch``.
        ``status`` stays the job-lifecycle view (what happened to *my*
        submission); ``stats`` is the operator view (how is the service
        doing) — queue depth, per-worker liveness/RSS/jobs,
        supervision tallies, request counters and, unless
        ``metrics=false``, the full metrics-registry snapshot.
        """
        server = self.server
        scheduler = server.scheduler
        uptime = max(time.time() - server.started_unix, 1e-9)
        pool_counters = scheduler.pool.counters()
        jobs = scheduler.counts()
        workers = scheduler.pool.worker_stats()
        for row in workers:
            pid = row.get("pid")
            row["rss_bytes"] = (
                obs_proc.rss_bytes(int(pid)) if row.get("alive") and pid else None
            )
        queue_stats: Dict[str, object] = {"depth": jobs["pending"]}
        # Queue latency lives in the stats payload itself (not only the
        # metrics snapshot) so the human `repro status` view — which
        # requests metrics=false — still renders it.
        registry = server.obs_registry
        if registry is not None:
            wait = registry.get("scheduler.queue_wait_ns")
            if wait is not None:
                wait_dict = wait.as_dict()  # type: ignore[attr-defined]
                queue_stats["wait"] = {
                    "count": wait_dict["count"],
                    "mean_ns": wait_dict["mean_ns"],
                    "max_ns": wait_dict["max_ns"],
                }
        stats: Dict[str, object] = {
            "uptime_seconds": round(uptime, 3),
            "pid": os.getpid(),
            "rss_bytes": obs_proc.rss_bytes(),
            "queue": queue_stats,
            "jobs": jobs,
            "inflight": scheduler.pool.inflight,
            "results": len(server.results),
            "pool": pool_counters,
            "workers": workers,
            "throughput": {
                "jobs_done": pool_counters["jobs_done"],
                "jobs_per_second": round(pool_counters["jobs_done"] / uptime, 6),
            },
        }
        if bool(request.get("metrics", True)):
            stats["metrics"] = obs_metrics.get_registry().snapshot()
        return ok_response(proto=PROTOCOL, stats=stats)

    def _op_results(self, request: Dict[str, object]) -> Dict[str, object]:
        digest = request.get("digest")
        if digest is not None:
            payloads = self.server.results.for_trace(str(digest))
            return ok_response(results=payloads, count=len(payloads))
        after = request.get("after")
        if after is not None and not isinstance(after, str):
            return error_response("results 'after' must be the last key of the previous page")
        payloads, cursor = self.server.results.page(after)
        return ok_response(results=payloads, count=len(payloads), next=cursor)

    def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        return ok_response(stopping=True)

    # -- whole-trace submission --------------------------------------------------------

    def _op_submit(self, request: Dict[str, object]) -> Dict[str, object]:
        text = request.get("text")
        if not isinstance(text, str):
            return error_response("submit needs the trace content in the 'text' field")
        fmt = str(request.get("fmt", "std"))
        if fmt not in ("std", "csv"):
            return error_response(f"unknown trace format {fmt!r}; expected 'std' or 'csv'")
        specs = request.get("specs")
        if not isinstance(specs, list) or not specs:
            return error_response("submit needs a non-empty 'specs' list")
        name = str(request.get("name", "")) or None
        tags = [str(tag) for tag in request.get("tags", [])]
        # Canonicalize the specs first so a typo fails before ingest.
        spec_keys = [coerce_spec(str(spec)).key for spec in specs]
        entry, created = self.server.corpus.ingest_text(text, fmt=fmt, name=name, tags=tags)
        force = bool(request.get("force", False))
        queued, cached, quarantined = self.server.scheduler.submit(
            entry.digest, spec_keys, force=force
        )
        return ok_response(
            digest=entry.digest,
            created=created,
            name=entry.name,
            events=entry.events,
            jobs=queued,
            cached=cached,
            quarantined=quarantined,
        )

    def _op_analyze(self, request: Dict[str, object]) -> Dict[str, object]:
        """Queue (trace × spec) jobs for a trace already in the corpus."""
        digest = request.get("digest")
        if not isinstance(digest, str) or not digest:
            return error_response("analyze needs a corpus trace 'digest'")
        specs = request.get("specs")
        if not isinstance(specs, list) or not specs:
            return error_response("analyze needs a non-empty 'specs' list")
        spec_keys = [coerce_spec(str(spec)).key for spec in specs]
        entry = self.server.corpus.get(digest)
        force = bool(request.get("force", False))
        queued, cached, quarantined = self.server.scheduler.submit(
            entry.digest, spec_keys, force=force
        )
        return ok_response(
            digest=entry.digest,
            created=False,
            name=entry.name,
            events=entry.events,
            jobs=queued,
            cached=cached,
            quarantined=quarantined,
        )

    # -- streaming ingest --------------------------------------------------------------

    def _op_stream_begin(self, request: Dict[str, object]) -> Dict[str, object]:
        if self._stream is not None:
            return error_response("a stream is already open on this connection")
        specs = request.get("specs")
        if specs is None:
            specs = []
        if not isinstance(specs, list):
            return error_response("stream_begin 'specs' must be a list")
        save = bool(request.get("save", False))
        if not specs and not save:
            return error_response(
                "stream_begin needs a non-empty 'specs' list (live analysis), "
                "save=true (ingest only), or both"
            )
        name = str(request.get("name", "")) or "stream"
        checkpoint = bool(request.get("checkpoint", False))
        checkpoint_every = int(
            request.get("checkpoint_every", _StreamState.CHECKPOINT_EVERY)  # type: ignore[arg-type]
        )
        if checkpoint and checkpoint_every < 1:
            return error_response("stream_begin 'checkpoint_every' must be >= 1")
        self._stream = _StreamState(
            name=name,
            specs=[str(s) for s in specs],
            save=save,
            checkpoint_dir=self.server.recovery_dir if checkpoint else None,
            checkpoint_every=checkpoint_every if checkpoint else 0,
        )
        self._race_cursor = 0
        return ok_response(
            name=name, specs=self._stream.spec_keys, save=save, checkpoint=checkpoint
        )

    def _op_stream_resume(self, request: Dict[str, object]) -> Dict[str, object]:
        """Re-open a checkpointed stream at its last durable snapshot.

        The response's ``events`` is the number of events the checkpoint
        covers — the producer re-feeds its source from that offset; the
        races the resumed session had already reported ride back in
        ``races`` so a fresh client still ends up with the full set.
        """
        if self._stream is not None:
            return error_response("a stream is already open on this connection")
        name = str(request.get("name", ""))
        if not name:
            return error_response("stream_resume needs the stream 'name'")
        try:
            stream = _StreamState.resume(name, self.server.recovery_dir)
        except SnapshotError as error:
            return error_response(str(error))
        self._stream = stream
        races, self._race_cursor = stream.races_since(0)
        return ok_response(
            name=name,
            specs=stream.spec_keys,
            save=stream.save,
            events=stream.events_sent,
            races=races,
            race_count=self._race_cursor,
        )

    def _op_feed(self, request: Dict[str, object]) -> Dict[str, object]:
        stream = self._stream
        if stream is None:
            return error_response("no open stream; send stream_begin first")
        lines = request.get("lines")
        if lines is None:
            line = request.get("line")
            lines = [line] if line is not None else None
        if not isinstance(lines, list):
            return error_response("feed needs an STD 'line' or a 'lines' list")
        fed = len(stream.feed_lines([str(line) for line in lines]))
        races, self._race_cursor = stream.races_since(self._race_cursor)
        return ok_response(
            fed=fed,
            events=stream.events_sent,
            races=races,
            race_count=self._race_cursor,
        )

    def _op_stream_end(self, request: Dict[str, object]) -> Dict[str, object]:
        stream = self._stream
        if stream is None:
            return error_response("no open stream; send stream_begin first")
        self._stream = None
        try:
            result = stream.finish()
        except BaseException:
            # The stream is already detached from the connection, so the
            # teardown path cannot reach it: drop the save spool here or
            # it leaks on every failed stream.
            stream.discard_spool()
            raise
        races, _ = stream.races_since(0)
        response = ok_response(
            name=stream.name,
            events=result.num_events if result is not None else stream.events_sent,
            elapsed_ns=result.elapsed_ns if result is not None else None,
            races=races,
            specs={
                key: {
                    "race_count": (
                        analysis.detection.race_count if analysis.detection is not None else None
                    ),
                    "elapsed_ns": analysis.elapsed_ns,
                }
                for key, analysis in (result if result is not None else ())
            },
        )
        if stream.save and stream.spool_path is not None:
            tags = [str(tag) for tag in request.get("tags", ["streamed"])]
            try:
                entry, created = self.server.corpus.ingest(
                    stream.spool_path, name=stream.name, tags=tags
                )
            finally:
                stream.discard_spool()
            response["digest"] = entry.digest
            response["created"] = created
        return response


class TraceServer(socketserver.ThreadingTCPServer):
    """The concurrent trace-analysis service (TCP + corpus + workers)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        corpus_dir: Union[str, Path],
        workers: int = 2,
        task_timeout: Optional[float] = None,
        obs_dir: Optional[Union[str, Path]] = None,
        retry_budget: Optional[int] = None,
    ) -> None:
        # The server process is long-lived and its request rate is tiny
        # next to the analysis work, so it runs with metrics on; worker
        # processes are separate and keep their registries disabled,
        # leaving the analysis hot path untouched.
        registry = obs_metrics.get_registry()
        self._registry_was_enabled = registry.enabled
        registry.enable()
        self.obs_registry: Optional[obs_metrics.MetricsRegistry] = registry
        self.corpus = TraceCorpus(corpus_dir)
        self.results = ResultsStore(self.corpus.root / "results.jsonl")
        #: Stream checkpoints (and their spools) live here, inside the
        #: corpus root: the data directory is the unit of recovery.
        self.recovery_dir = self.corpus.root / "recovery"
        # Read what the previous incarnation left behind *before*
        # opening the journal for append: these records drive the
        # orphan re-queue after the scheduler starts.
        journal_path = self.corpus.root / "journal.jsonl"
        journal_errors: List[str] = []
        previous = replay_journal(read_journal(journal_path, errors=journal_errors))
        for problem in journal_errors:
            log.warning("journal: skipped %s", problem)
        self.journal = JobJournal(journal_path)
        self.quarantine = QuarantineStore(self.corpus.root / "quarantine.json")
        #: Job ids re-queued by journal replay at this startup.
        self.recovered_jobs: List[str] = []
        # Distributed tracing: an explicit obs_dir turns span recording
        # on for the whole job path (server + every worker, one per-pid
        # file each under obs_dir); with tracing already configured by
        # the embedder/CLI, workers still get a default obs_dir under
        # the corpus so their spans have somewhere to land.
        self._owns_tracing = False
        if obs_dir is not None:
            self.obs_dir: Optional[Path] = Path(obs_dir)
            self.obs_dir.mkdir(parents=True, exist_ok=True)
            if not obs_tracing.tracing_enabled():
                obs_tracing.configure_tracing(
                    self.obs_dir / f"spans-server-{os.getpid()}.jsonl"
                )
                self._owns_tracing = True
        elif obs_tracing.tracing_enabled():
            self.obs_dir = self.corpus.root / "obs"
            self.obs_dir.mkdir(parents=True, exist_ok=True)
        else:
            self.obs_dir = None
        self.scheduler = Scheduler(
            self.corpus,
            self.results,
            workers=workers,
            task_timeout=task_timeout,
            obs_dir=self.obs_dir,
            retry_budget=retry_budget,
            journal=self.journal,
            quarantine=self.quarantine,
        )
        self.started_unix = time.time()
        self._shutdown_thread: Optional[threading.Thread] = None
        self._loop_started = False
        # Start the worker processes before the socket threads: forked
        # children should not inherit handler-thread state.
        self.scheduler.start()
        self._replay_orphans(previous)
        try:
            super().__init__(address, ServeHandler)
        except BaseException:
            self.scheduler.close(timeout=2.0)
            self.results.close()
            self.journal.close()
            raise
        log.info(
            "listening on %s:%d (%d workers, corpus %s)",
            self.address[0],
            self.address[1],
            workers,
            self.corpus.root,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) actually bound (port 0 resolves here)."""
        host, port = self.server_address[:2]
        return str(host), int(port)

    def _replay_orphans(self, previous: Dict[str, JournalRecord]) -> None:
        """Re-queue the jobs a previous incarnation left in flight.

        Idempotent against every way a job can have actually finished:
        ``submit`` skips cells the results store holds (a job whose
        ``complete`` record was torn away is served from cache) and
        cells parked in the quarantine.  A record whose ``submit`` line
        was lost (no digest) or whose trace left the corpus cannot be
        re-queued and is logged instead.

        A ``complete`` record whose cell is *missing* from the results
        store is also re-queued.  The scheduler appends a cell to the
        results log before it journals ``complete``, but the two files
        are not flushed to the disk together, so a power loss, or a tear
        that cut the log's last record, can keep the completion and lose
        the payload — the journal proves the job ran, the store is the
        source of truth for whether the result survived.
        """
        by_digest: Dict[str, List[str]] = {}
        for record in previous.values():
            if not record.digest or not record.spec:
                continue
            lost_result = record.last_event == "complete" and not self.scheduler.results.has(
                record.digest, record.spec
            )
            if not record.orphaned and not lost_result:
                continue
            by_digest.setdefault(record.digest, []).append(record.spec)
        for digest, specs in by_digest.items():
            try:
                queued, _cached, _quarantined = self.scheduler.submit(
                    digest, specs, recovered=True
                )
            except (CorpusError, ValueError) as error:
                log.warning(
                    "journal replay: cannot re-queue %s × %s: %s",
                    digest[:12],
                    specs,
                    error,
                )
                continue
            self.recovered_jobs.extend(queued)
            for job_id in queued:
                with obs_tracing.span("job.recovered", job=job_id, digest=digest[:12]):
                    pass
        if self.recovered_jobs:
            registry = self.obs_registry
            if registry is not None:
                registry.counter("recovery.jobs_recovered").inc(len(self.recovered_jobs))
            log.info(
                "journal replay re-queued %d orphaned job(s): %s",
                len(self.recovered_jobs),
                ", ".join(self.recovered_jobs[:8]),
            )

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._loop_started = True
        super().serve_forever(poll_interval)

    def begin_shutdown(self) -> None:
        """Stop the serve loop from a handler thread (idempotent)."""
        if self._shutdown_thread is None:
            self._shutdown_thread = threading.Thread(target=self.shutdown, daemon=True)
            self._shutdown_thread.start()

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Full teardown: stop serving, drain the pool, release the socket."""
        if self._loop_started:
            self.shutdown()
        self.scheduler.close(timeout=timeout)
        # The results log and the journal close after the scheduler:
        # draining jobs write their cells and terminal records first, so
        # a clean shutdown leaves no orphans for the next start to replay.
        self.results.close()
        self.journal.close()
        self.server_close()
        log.info("server on %s:%d closed", self.address[0], self.address[1])
        if self._owns_tracing:
            obs_tracing.shutdown_tracing()
        # Restore the registry's pre-server state so an in-process
        # embedder (the tests, notebooks) doesn't come out of a server
        # run with global metrics silently switched on.
        if self.obs_registry is not None and not self._registry_was_enabled:
            self.obs_registry.disable()


def serve(
    host: str,
    port: int,
    corpus_dir: Union[str, Path],
    workers: int = 2,
    task_timeout: Optional[float] = None,
    obs_dir: Optional[Union[str, Path]] = None,
    retry_budget: Optional[int] = None,
) -> TraceServer:
    """Construct a :class:`TraceServer` bound to ``(host, port)``.

    The caller owns the serve loop: call ``serve_forever()`` (blocking)
    or drive it from a thread; ``server.address`` reports the bound
    port when ``port`` was 0.  ``obs_dir`` enables distributed span
    recording for every job (server + workers) into that directory.
    ``retry_budget`` bounds crash/timeout retries per job before
    quarantine.
    """
    return TraceServer(
        (host, port),
        corpus_dir,
        workers=workers,
        task_timeout=task_timeout,
        obs_dir=obs_dir,
        retry_budget=retry_budget,
    )
