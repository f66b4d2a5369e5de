"""Jobs, the pending queue, and the :class:`Scheduler`.

A *job* is one (trace × :class:`~repro.api.spec.AnalysisSpec`) cell of
the corpus-wide analysis matrix.  Pending jobs wait in one FIFO queue
and are dispatched in submission order.

The :class:`Scheduler` is the conductor: it folds submissions into
jobs (skipping cells the results store already holds — idempotent
re-submission), keeps a bounded number of cells in flight on the
:class:`~repro.serve.pool.WorkerPool`, and folds worker payloads into
the :class:`~repro.serve.results.ResultsStore` as they complete.  All
public methods are thread-safe; the TCP handler threads of
:mod:`repro.serve.server` and the pool's monitor thread meet here.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..api.spec import coerce_spec
from ..obs import context as obs_context
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..recovery.journal import JobJournal
from ..recovery.quarantine import QuarantineStore
from .corpus import TraceCorpus
from .pool import MAX_ATTEMPTS, WorkerPool, WorkerTask, is_crash_error
from .results import ResultsStore


class JobStatus(str, Enum):
    """Lifecycle of one (trace × spec) cell."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: Crash-class failures past the retry budget: parked in the
    #: persisted quarantine instead of looping through the fleet.
    QUARANTINED = "quarantined"


@dataclass
class AnalysisJob:
    """One queued analysis cell and its lifecycle state."""

    job_id: str
    digest: str
    spec: str
    trace_name: str
    status: JobStatus = JobStatus.PENDING
    attempts: int = 0
    error: Optional[str] = None
    submitted_unix: float = field(default_factory=time.time)
    #: The submitter's distributed trace context (traceparent string),
    #: captured at submission so the worker's spans — and the synthetic
    #: ``job.queue_wait`` span — land in the client's trace.
    traceparent: Optional[str] = None
    #: Monotonic stamp taken when the job entered the pending queue;
    #: dispatch turns the difference into the queue-wait histogram.
    queued_monotonic_ns: int = 0
    #: True for jobs re-queued by journal replay after a restart — the
    #: ``repro status`` "recovered" line.
    recovered: bool = False

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable job descriptor (the ``status`` op's job rows)."""
        return {
            "job_id": self.job_id,
            "digest": self.digest,
            "spec": self.spec,
            "trace": self.trace_name,
            "status": self.status.value,
            "attempts": self.attempts,
            "error": self.error,
            "submitted_unix": self.submitted_unix,
            "recovered": self.recovered,
        }


def job_id_of(digest: str, spec: str) -> str:
    """The stable id of one cell (short digest + spec key)."""
    return f"{digest[:12]}:{spec}"


class Scheduler:
    """Drives (trace × spec) cells from submission to recorded result.

    ``parallel_workers`` must be 1: every task runs the sequential
    :meth:`Session.run`.  The parameter remains only because
    ``perfbench/layers.py`` reads its default; nothing else reads it.
    """

    def __init__(
        self,
        corpus: TraceCorpus,
        results: ResultsStore,
        workers: int = 2,
        task_timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
        parallel_workers: int = 1,
        obs_dir: Optional[Union[str, Path]] = None,
        retry_budget: Optional[int] = None,
        journal: Optional[JobJournal] = None,
        quarantine: Optional[QuarantineStore] = None,
    ) -> None:
        if parallel_workers != 1:
            raise ValueError(f"parallel_workers must be 1, got {parallel_workers}")
        self.corpus = corpus
        self.results = results
        #: Job-scoped observability directory: when set, dispatched tasks
        #: carry it so each worker process exports its spans to a
        #: per-pid file under it (``spans-<pid>.jsonl``).
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        #: Durable job journal (optional): every submit/dispatch/terminal
        #: transition is appended so a restart can replay and re-queue
        #: whatever was in flight.
        self.journal = journal
        #: Persisted poison-job list (optional): crash-class failures
        #: past the retry budget land here instead of re-queueing.
        self.quarantine = quarantine
        #: Crash/timeout retries allowed per job on top of the first
        #: attempt (``None`` = the pool's historical default of one).
        self.retry_budget = retry_budget
        #: Pending jobs in submission order, guarded by ``_lock``.
        self._pending: Deque[AnalysisJob] = deque()
        self.pool = WorkerPool(
            workers=workers,
            task_timeout=task_timeout,
            on_result=self._on_result,
            max_attempts=(retry_budget + 1 if retry_budget is not None else MAX_ATTEMPTS),
        )
        # Keep a small multiple of the worker count in flight so workers
        # never idle between a completion and the next dispatch.
        self.max_inflight = max_inflight if max_inflight is not None else 2 * workers
        #: Terminal (done/failed) jobs kept for status queries; older ones
        #: are pruned so a long-lived server's job history stays bounded
        #: (their results live on in the results store regardless).
        self.max_job_history = 10_000
        self._jobs: Dict[str, AnalysisJob] = {}
        self._inflight = 0
        self._closing = False
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        # Metrics registry binding of the current run (None = disabled);
        # bound once at start() so queue paths pay one check, like the pool.
        self._obs: Optional[obs_metrics.MetricsRegistry] = None

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "Scheduler":
        registry = obs_metrics.get_registry()
        self._obs = registry if registry.enabled else None
        self.pool.start()
        return self

    def close(self, timeout: Optional[float] = 10.0) -> bool:
        """Graceful shutdown of the pool; ``False`` if it had to be killed."""
        with self._lock:
            # Stop dispatching first: a completion callback racing this
            # close must not push new tasks into a stopping pool.
            self._closing = True
        try:
            if self.pool.close(timeout=timeout):
                return True
            self.pool.terminate()
            return False
        finally:
            self.results.flush()

    # -- submission --------------------------------------------------------------------

    def submit(
        self,
        digest: str,
        specs: Sequence[str],
        force: bool = False,
        recovered: bool = False,
    ) -> Tuple[List[str], List[str], List[str]]:
        """Queue the (``digest`` × ``specs``) cells.

        Returns ``(queued, cached, quarantined)``.  Cells whose result
        the store already holds are skipped and reported in ``cached``
        (pass ``force=True`` to recompute them); cells already pending
        or running are returned in ``queued`` without double-enqueueing;
        cells parked in the quarantine stay parked and are reported in
        ``quarantined`` (``force=True`` releases them for a fresh run).
        Spec strings are canonicalized, so ``"HB+tree"`` and ``"hb+tc"``
        name the same cell.  ``recovered`` marks jobs re-queued by
        journal replay, for the status surface.
        """
        entry = self.corpus.get(digest)
        queued: List[str] = []
        cached: List[str] = []
        quarantined: List[str] = []
        # Captured once per submission: the handler thread's active
        # context (the open serve.op.* span, or the client's raw
        # context) becomes the parent of everything the job does.
        submit_ctx = obs_context.active_context()
        traceparent = submit_ctx.to_traceparent() if submit_ctx is not None else None
        for spec_text in specs:
            spec = coerce_spec(spec_text).key
            job_id = job_id_of(digest, spec)
            if self.quarantine is not None and job_id in self.quarantine:
                if force:
                    self.quarantine.remove(job_id)
                else:
                    quarantined.append(job_id)
                    continue
            if not force and self.results.has(digest, spec):
                cached.append(job_id)
                continue
            if force:
                self.results.discard(digest, spec)
            with self._lock:
                existing = self._jobs.get(job_id)
                if existing is not None and existing.status in (
                    JobStatus.PENDING,
                    JobStatus.RUNNING,
                ):
                    queued.append(job_id)
                    continue
                job = AnalysisJob(
                    job_id=job_id,
                    digest=digest,
                    spec=spec,
                    trace_name=entry.name,
                    traceparent=traceparent,
                    queued_monotonic_ns=time.monotonic_ns(),
                    recovered=recovered,
                )
                self._jobs[job_id] = job
                self._pending.append(job)
                queued.append(job_id)
            if self.journal is not None:
                self.journal.record(
                    "submit",
                    job_id,
                    digest=digest,
                    spec=spec,
                    trace=entry.name,
                    recovered=recovered,
                )
        obs = self._obs
        if obs is not None:
            obs.gauge("jobs.queued").set(len(self._pending))
        self._dispatch()
        return queued, cached, quarantined

    def _dispatch(self) -> None:
        """Top the pool up to ``max_inflight`` tasks, oldest pending first."""
        while True:
            with self._lock:
                if self._closing or self._inflight >= self.max_inflight or not self._pending:
                    return
                job = self._pending.popleft()
                job.status = JobStatus.RUNNING
                self._inflight += 1
                entry = self.corpus.get(job.digest)
                task = WorkerTask(
                    task_id=job.job_id,
                    trace_path=str(self.corpus.trace_path(job.digest)),
                    spec=job.spec,
                    fmt=entry.trace_fmt,
                    trace_name=job.trace_name,
                    traceparent=job.traceparent,
                    obs_dir=str(self.obs_dir) if self.obs_dir is not None else None,
                )
            self._record_queue_wait(job)
            if self.journal is not None:
                self.journal.record("dispatch", job.job_id, digest=job.digest, spec=job.spec)
            self.pool.submit(task)

    def _record_queue_wait(self, job: AnalysisJob) -> None:
        """Account one job's pending-queue dwell time (metrics + span).

        The wait is an interval nobody is "inside" as code, so it is
        measured between the submit and dispatch stamps and exported as
        a synthetic ``job.queue_wait`` span of the submitter's trace —
        the queue phase of ``repro obs timeline``.
        """
        if not job.queued_monotonic_ns:
            return
        wait_ns = time.monotonic_ns() - job.queued_monotonic_ns
        obs = self._obs
        if obs is not None:
            obs.histogram("scheduler.queue_wait_ns").observe(wait_ns)
            obs.gauge("jobs.queued").set(len(self._pending))
        if job.traceparent and obs_tracing.tracing_enabled():
            ctx = obs_context.context_from_message({"trace": job.traceparent})
            if ctx is not None:
                obs_tracing.export_span(
                    "job.queue_wait",
                    job.queued_monotonic_ns,
                    job.queued_monotonic_ns + wait_ns,
                    trace_id=ctx.trace_id,
                    parent_sid=ctx.span_id,
                    job=job.job_id,
                    spec=job.spec,
                )

    def _on_result(
        self,
        task_id: str,
        payload: Optional[Dict[str, object]],
        error: Optional[str],
        attempts: int,
    ) -> None:
        with self._lock:
            job = self._jobs.get(task_id)
        # Record the payload BEFORE the job becomes visibly DONE: clients
        # wait for terminal status and then read the results store, so
        # the store must already hold the cell when the flip happens.  A
        # recording failure (e.g. disk full) must still flip the job —
        # to FAILED — or its dispatch slot leaks forever.
        if job is not None and payload is not None:
            try:
                # The persist span closes the job's distributed trace:
                # parented under the submitter's context so the timeline
                # shows submit → queue → analyze → persist end to end.
                ctx = (
                    obs_context.context_from_message({"trace": job.traceparent})
                    if job.traceparent
                    else None
                )
                with obs_context.use_context(ctx):
                    with obs_tracing.span(
                        "job.persist", job=task_id, digest=job.digest[:12]
                    ):
                        self.results.record(job.digest, job.spec, payload)
            except Exception as record_error:  # noqa: BLE001 - surfaced on the job
                payload = None
                error = f"result recording failed: {type(record_error).__name__}: {record_error}"
        quarantine_this = False
        with self._lock:
            if job is not None:
                job.attempts = attempts
                if error is None:
                    job.status = JobStatus.DONE
                elif (
                    self.quarantine is not None
                    and is_crash_error(error)
                    and not self._closing
                ):
                    # The retry budget is spent (the pool only reports a
                    # crash-class error once it gave up) — park the job
                    # instead of failing the fleet over and over.
                    job.status = JobStatus.QUARANTINED
                    job.error = error
                    quarantine_this = True
                else:
                    job.status = JobStatus.FAILED
                    job.error = error
            self._inflight = max(0, self._inflight - 1)
            self._prune_history_locked()
            self._drained.notify_all()
        if job is not None:
            if quarantine_this:
                assert self.quarantine is not None and error is not None
                self.quarantine.add(
                    job.job_id,
                    digest=job.digest,
                    spec=job.spec,
                    trace_name=job.trace_name,
                    error=error,
                    attempts=attempts,
                )
                obs = self._obs
                if obs is not None:
                    obs.counter("scheduler.quarantined").inc()
            if self.journal is not None:
                if error is None:
                    self.journal.record("complete", job.job_id)
                elif quarantine_this:
                    self.journal.record(
                        "quarantine", job.job_id, error=error, attempts=attempts
                    )
                else:
                    self.journal.record("fail", job.job_id, error=error)
        self._dispatch()

    def _prune_history_locked(self) -> None:
        """Drop the oldest terminal jobs beyond :attr:`max_job_history`."""
        overflow = len(self._jobs) - self.max_job_history
        if overflow <= 0:
            return
        terminal = sorted(
            (
                job
                for job in self._jobs.values()
                if job.status in (JobStatus.DONE, JobStatus.FAILED, JobStatus.QUARANTINED)
            ),
            key=lambda job: job.submitted_unix,
        )
        for job in terminal[:overflow]:
            del self._jobs[job.job_id]

    # -- introspection -----------------------------------------------------------------

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is pending or running (or ``timeout`` expired)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drained:
            while self._inflight > 0 or self._pending:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._drained.wait(remaining if remaining is not None else 0.5)
            return True

    def jobs(self) -> List[AnalysisJob]:
        """Every job this scheduler has seen, submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.submitted_unix)

    def counts(self) -> Dict[str, int]:
        """Job counts by status (the ``status`` op's headline numbers)."""
        tally = {status.value: 0 for status in JobStatus}
        with self._lock:
            for job in self._jobs.values():
                tally[job.status.value] += 1
        return tally

    def status_snapshot(
        self, detail: bool = False, job_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, object]:
        """JSON-serializable scheduler state for the ``status`` protocol op.

        ``job_ids`` restricts the detailed job list to those ids — the
        form pollers use, so a wait on six jobs does not make the server
        serialize its whole history on every poll.
        """
        snapshot: Dict[str, object] = {
            "jobs": self.counts(),
            "inflight": self._inflight,
            "workers": self.pool.alive_workers,
            "results": len(self.results),
            # Supervision history: visible retries/crashes/timeouts were
            # previously swallowed by the retry-once policy — a task that
            # crashed and then succeeded looked identical to a clean run.
            "pool": self.pool.counters(),
        }
        with self._lock:
            snapshot["recovered"] = sum(
                1 for job in self._jobs.values() if job.recovered
            )
        if self.quarantine is not None:
            quarantine: Dict[str, object] = {"count": len(self.quarantine)}
            if detail:
                quarantine["jobs"] = self.quarantine.all()
            snapshot["quarantine"] = quarantine
        if job_ids is not None:
            with self._lock:
                snapshot["job_list"] = [
                    self._jobs[job_id].as_dict() for job_id in job_ids if job_id in self._jobs
                ]
        elif detail:
            snapshot["job_list"] = [job.as_dict() for job in self.jobs()]
        return snapshot
