"""``repro.serve`` — the concurrent trace-analysis service.

Everything before this package analyzes one trace per process
invocation.  ``repro.serve`` turns the library into a *service*: a
persistent process that accepts many traces concurrently, amortizes the
analysis matrix across a pool of crash-isolated worker processes, and
accumulates a durable, content-addressed corpus of everything it has
seen.  The layering, bottom to top:

* :class:`TraceCorpus` (:mod:`repro.serve.corpus`) — content-addressed
  trace store with a JSON index of per-trace statistics, dedupe and tag
  queries;
* :class:`ResultsStore` (:mod:`repro.serve.results`) — append-only,
  schema-versioned log of finished (trace × spec) payloads, read back
  from disk; what makes re-submission idempotent;
* :class:`Scheduler` (:mod:`repro.serve.jobs`) — pending
  (trace × :class:`~repro.api.AnalysisSpec`) cells in one FIFO queue,
  dispatched in submission order into the pool;
* :class:`WorkerPool` (:mod:`repro.serve.pool`) — ``multiprocessing``
  workers with graceful shutdown, per-job timeout, and crash isolation
  with retry-once;
* :class:`TraceServer` / :class:`ServeClient`
  (:mod:`repro.serve.server` / :mod:`repro.serve.client`) — a JSON-lines
  TCP protocol (:mod:`repro.serve.protocol`) supporting whole-trace
  submission *and* streaming ingest, where each fed batch is analyzed
  by an incremental :class:`~repro.api.Session` before its reply, so
  races return while the producer is still sending.

From the command line: ``repro serve``, ``repro submit``,
``repro status`` (:mod:`repro.serve.cli`).

Quickstart (in-process, no sockets)
-----------------------------------
>>> from repro.serve import TraceCorpus, WorkerTask, run_batch
>>> corpus = TraceCorpus("./corpus")
>>> entry, _ = corpus.ingest("trace.std.gz", tags=("captured",))
>>> tasks = [WorkerTask(task_id=spec, trace_path=str(corpus.trace_path(entry.digest)), spec=spec)
...          for spec in ("hb+tc+detect", "shb+vc+detect")]
>>> results = run_batch(tasks, workers=2)
"""

from .corpus import CorpusEntry, CorpusError, TraceCorpus
from .jobs import AnalysisJob, JobStatus, Scheduler, job_id_of
from .pool import WorkerPool, WorkerTask, execute_task, run_batch
from .protocol import DEFAULT_PORT, PROTOCOL, ProtocolError
from .results import RESULTS_SCHEMA, ResultsStore, result_key
from .client import ServeClient, ServeClientError, StreamHandle, parse_address
from .server import TraceServer, serve

__all__ = [
    "AnalysisJob",
    "CorpusEntry",
    "CorpusError",
    "DEFAULT_PORT",
    "JobStatus",
    "PROTOCOL",
    "ProtocolError",
    "RESULTS_SCHEMA",
    "ResultsStore",
    "Scheduler",
    "ServeClient",
    "ServeClientError",
    "StreamHandle",
    "TraceCorpus",
    "TraceServer",
    "WorkerPool",
    "WorkerTask",
    "execute_task",
    "job_id_of",
    "parse_address",
    "result_key",
    "run_batch",
    "serve",
]
