"""The :class:`WorkerPool`: crash-isolated analysis workers.

Each worker is a separate ``multiprocessing`` process executing
:class:`WorkerTask` cells — one (trace file × analysis spec) each —
through one single-spec :meth:`repro.api.Session.run` over the file,
and reporting a plain-dict payload back.  Process isolation is the
point: a segfaulting or wedged analysis takes down one worker, not the
service.

Assignment is parent-side: every worker has its own one-deep task inbox
and the pool's monitor thread hands a backlog task to a worker the
moment it goes idle.  Because the parent decides who runs what, a dead
worker's in-flight task is known *deterministically* — there is no
window where a task vanishes into a shared queue that a crashing worker
drained but never acknowledged (``multiprocessing.Queue`` sends through
a background feeder thread, so a hard crash can lose any message the
worker "sent" moments before dying).

The monitor thread supervises the fleet:

* **crash isolation** — a worker that dies mid-task is replaced and its
  task retried up to the pool's ``max_attempts`` budget (default: one
  retry; the final crash fails the task with the exit code);
* **per-task timeout** — a task assigned longer than ``task_timeout``
  seconds gets its worker terminated and is retried on a fresh one,
  against the same attempt budget;
* **clean failures** — a task that raises a Python exception (missing
  file, malformed trace, unknown spec) is *not* retried: exceptions are
  deterministic, so the error string is reported immediately;
* **graceful shutdown** — :meth:`close` lets in-flight tasks finish,
  then stops the workers with sentinels; :meth:`terminate` kills them.

Completion is delivered through an ``on_result`` callback (fired from
the monitor thread, outside the pool lock) and mirrored in an internal
table, so both the event-driven scheduler of :mod:`repro.serve.server`
and the blocking :meth:`run_batch` convenience (used by the ``serve``
benchmarks and the batch example) sit on the same mechanics.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs import proc as obs_proc
from ..obs.logging import get_logger

_log = get_logger(__name__)

#: Default attempt cap: first run + one retry.  Pools take a
#: ``max_attempts`` parameter (the scheduler's retry budget + 1) that
#: overrides this.
MAX_ATTEMPTS = 2

#: Error-string prefixes of the *non-deterministic* failure class: the
#: worker vanished or wedged, rather than the task raising a Python
#: exception.  These are what the pool retries and what the scheduler
#: quarantines once the retry budget is spent.
CRASH_ERROR_PREFIXES = ("worker crashed", "task timed out")

#: Result callback signature: (task_id, payload-or-None, error-or-None, attempts).
ResultCallback = Callable[[str, Optional[Dict[str, object]], Optional[str], int], None]


def is_crash_error(error: Optional[str]) -> bool:
    """Whether a task error means the worker died/hung (vs a clean failure).

    Clean failures (a Python exception from the task: missing file,
    malformed trace, unknown spec) are deterministic and never retried;
    crash-class errors exhaust a retry budget and mark the job as
    poison.  The classification keys on the stable error strings the
    pool itself produces.
    """
    return error is not None and error.startswith(CRASH_ERROR_PREFIXES)


@dataclass(frozen=True, slots=True)
class WorkerTask:
    """One unit of pool work: analyze one trace file under one spec.

    Everything here crosses the process boundary, so fields are plain
    picklable values; the trace travels as a file path, never as events.
    ``fmt`` defaults to ``None`` — the worker then sniffs the format
    from the file content (colf magic, gzip, CSV header, STD), which is
    the right call for corpus-stored traces whatever encoding the store
    uses.  ``fault`` is test instrumentation for the crash-isolation and
    timeout paths (``"exit"`` hard-kills the worker mid-task, ``"hang"``
    blocks it, ``"exit_once"`` hard-kills only the first attempt — a
    marker file beside the trace lets the retry proceed) — production
    schedulers never set it.

    ``traceparent`` carries the submitter's distributed trace context
    (:mod:`repro.obs.context`) across the process boundary, and
    ``obs_dir`` names the job-scoped observability directory: when set,
    the worker configures its own span exporter to a per-pid file under
    it (``spans-<pid>.jsonl``) and parents its spans — ``worker.task``
    down to the parallel chunk spans — under the remote context.

    ``parallel`` asks the worker to run the analysis segment-parallel
    with that many threads (:meth:`Session.run` with ``parallel=N``);
    it only engages for multi-segment colf traces and silently falls
    back to the sequential walk everywhere else, so schedulers may set
    it purely on trace size.
    """

    task_id: str
    trace_path: str
    spec: str
    fmt: Optional[str] = None
    trace_name: str = ""
    parallel: int = 1
    fault: Optional[str] = None
    traceparent: Optional[str] = None
    obs_dir: Optional[str] = None


def _run_task_session(task: WorkerTask):
    """The analysis itself: one ``Session.run`` over the task's trace file.

    The source is the one :func:`~repro.api.sources.as_event_source`
    would pick for the path — a :class:`ColfSource` (thread universe
    from the footer, segment-parallel when ``task.parallel > 1``) for
    colf containers, a :class:`FileSource` otherwise — named after the
    task, and closed after the walk.
    """
    from ..api import Session
    from ..api.sources import ColfSource, FileSource
    from ..trace.io import infer_format

    session = Session([task.spec])
    name = task.trace_name or task.trace_path
    fmt = task.fmt if task.fmt is not None else infer_format(task.trace_path)
    source = (
        ColfSource(task.trace_path, name=name)
        if fmt == "colf"
        else FileSource(task.trace_path, fmt=fmt, name=name)
    )
    try:
        return session.run(source, parallel=task.parallel)
    finally:
        if isinstance(source, ColfSource):
            source.close()


def execute_task(task: WorkerTask) -> Dict[str, object]:
    """Run one task to completion in the current process.

    This is the function the worker processes execute; it is equally
    callable in-process (the unit tests use it that way).  Returns the
    JSON-serializable result payload that gets folded into the results
    store.
    """
    if task.fault == "exit":  # test instrumentation: simulate a worker crash
        os._exit(13)
    if task.fault == "exit_once":  # test instrumentation: crash the first attempt only
        marker = task.trace_path + ".crash-marker"
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(13)
    if task.fault == "hang":  # test instrumentation: simulate a wedged analysis
        time.sleep(3600)

    from ..obs import context as obs_context
    from ..obs import tracing as obs_tracing

    # Worker-side tracing setup.  Each worker process exports to its own
    # per-pid file (one writer per file — no cross-process interleaving)
    # and attaches the task's remote context, so every span recorded
    # below parents under the submitter's trace.  In-process callers
    # (unit tests, run_batch embedders) that already configured tracing
    # keep their exporter; the obs_dir file is only opened when this
    # process owns none.
    owns_tracing = False
    if task.obs_dir and not obs_tracing.tracing_enabled():
        from pathlib import Path

        obs_dir = Path(task.obs_dir)
        obs_dir.mkdir(parents=True, exist_ok=True)
        obs_tracing.configure_tracing(obs_dir / f"spans-{os.getpid()}.jsonl")
        owns_tracing = True
    remote = (
        obs_context.context_from_message({"trace": task.traceparent})
        if task.traceparent
        else None
    )
    token = obs_context.attach_context(remote) if remote is not None else None
    try:
        with obs_tracing.span(
            "worker.task", job=task.task_id, spec=task.spec, parallel=task.parallel
        ):
            result = _run_task_session(task)
    finally:
        if token is not None:
            obs_context.detach_context(token)
        if owns_tracing:
            obs_tracing.shutdown_tracing()

    from ..api import coerce_spec

    spec = coerce_spec(task.spec)
    analysis = result[spec]

    payload: Dict[str, object] = {
        "spec": spec.key,
        "trace": task.trace_name or task.trace_path,
        "events": result.num_events,
        "elapsed_ns": analysis.elapsed_ns,
        "worker_pid": os.getpid(),
    }
    if result.parallel is not None:
        payload["parallel"] = {
            "workers": result.parallel.workers,
            "chunks": result.parallel.chunks,
            "segments": result.parallel.segments,
            "critical_path_ns": result.parallel.critical_path_ns,
        }
    if analysis.detection is not None:
        payload["race_count"] = analysis.detection.race_count
        payload["races"] = sorted(race.pair() for race in analysis.detection.races)
        payload["racy_variables"] = sorted(str(v) for v in analysis.detection.racy_variables)
    if analysis.work is not None:
        payload["work"] = {
            "entries_processed": analysis.work.entries_processed,
            "entries_updated": analysis.work.entries_updated,
            "joins": analysis.work.joins,
            "copies": analysis.work.copies,
        }
    return payload


def _worker_main(worker_id: int, inbox: "multiprocessing.Queue", results: "multiprocessing.Queue") -> None:
    """Worker process loop: run assigned tasks until the ``None`` sentinel."""
    while True:
        task = inbox.get()
        if task is None:
            break
        try:
            payload = execute_task(task)
        except Exception as error:  # noqa: BLE001 - reported to the parent verbatim
            results.put(("failed", worker_id, task.task_id, f"{type(error).__name__}: {error}"))
        else:
            results.put(("done", worker_id, task.task_id, payload))


@dataclass
class _TaskState:
    task: WorkerTask
    attempts: int = 0
    running_on: Optional[int] = None
    assigned_monotonic: Optional[float] = None


@dataclass
class _WorkerState:
    process: multiprocessing.process.BaseProcess
    inbox: "multiprocessing.Queue"
    current_task: Optional[str] = None
    jobs_done: int = 0


class WorkerPool:
    """A supervised fleet of analysis worker processes."""

    def __init__(
        self,
        workers: int = 2,
        task_timeout: Optional[float] = None,
        on_result: Optional[ResultCallback] = None,
        poll_interval: float = 0.05,
        max_attempts: int = MAX_ATTEMPTS,
    ) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        if max_attempts < 1:
            raise ValueError("a task needs at least one attempt")
        self.num_workers = workers
        self.task_timeout = task_timeout
        #: Crash/timeout attempt cap per task (first run included); the
        #: scheduler sets this from its configurable retry budget.
        self.max_attempts = max_attempts
        self._on_result = on_result
        self._poll_interval = poll_interval
        # Workers must never be forked from a multithreaded parent: the
        # self-heal path respawns them from the monitor thread while the
        # server's handler threads are live, and a plain fork() there can
        # inherit locks mid-acquisition.  The forkserver context forks
        # every worker from a clean single-threaded helper process
        # (started below, before any pool thread exists); platforms
        # without forkserver fall back to spawn.
        try:
            self._context = multiprocessing.get_context("forkserver")
            # Preload this module (and with it the analysis stack) in the
            # forkserver helper, so each worker fork starts warm instead
            # of re-importing repro on its first task.
            self._context.set_forkserver_preload(["repro.serve.pool"])
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context("spawn")
        self._result_queue: Optional[multiprocessing.Queue] = None
        self._workers: Dict[int, _WorkerState] = {}
        self._next_worker_id = 0
        self._backlog: Deque[WorkerTask] = deque()
        self._tasks: Dict[str, _TaskState] = {}
        self._completed: Dict[str, Tuple[Optional[Dict[str, object]], Optional[str], int]] = {}
        self._pending_callbacks: List[Tuple[str, Optional[Dict[str, object]], Optional[str], int]] = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._monitor: Optional[threading.Thread] = None
        self._stopping = False
        self._started = False
        # Supervision tallies — plain ints, always on (the ``serve
        # status`` surface depends on them regardless of whether the
        # metrics registry is enabled).  Guarded by self._lock.
        self._counters: Dict[str, int] = {
            "jobs_done": 0,
            "jobs_failed": 0,
            "crashes": 0,
            "timeouts": 0,
            "retries": 0,
            "callback_errors": 0,
        }
        # Metrics registry binding of the current run (None = disabled);
        # bound once at start() so supervision paths pay one check.
        self._obs: Optional[obs_metrics.MetricsRegistry] = None
        self._rss_sample_interval = 1.0
        self._last_rss_sample = 0.0

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the workers and the monitor thread; idempotent.

        A closed pool can be started again: the stop flag and any dead
        worker records from the previous run are cleared first.
        """
        if self._started:
            return self
        registry = obs_metrics.get_registry()
        self._obs = registry if registry.enabled else None
        self._result_queue = self._context.Queue()
        with self._lock:
            self._stopping = False
            # Stragglers from a previous run still reference the old
            # result queue; replace the whole fleet.
            for state in self._workers.values():
                if state.process.is_alive():
                    state.process.terminate()
                    state.process.join(1.0)
            self._workers = {}
            for _ in range(self.num_workers):
                self._spawn_worker_locked()
        self._monitor = threading.Thread(target=self._monitor_loop, name="pool-monitor", daemon=True)
        self._monitor.start()
        self._started = True
        return self

    def _spawn_worker_locked(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, inbox, self._result_queue),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = _WorkerState(process=process, inbox=inbox)
        return worker_id

    def close(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: wait for in-flight tasks, drain the workers.

        Returns ``True`` when everything wound down within ``timeout``
        (``None`` = wait indefinitely).  On ``False`` the pool is left
        formally started — with its hung tasks and monitor intact — so
        the caller's prescribed escalation to :meth:`terminate` actually
        has something to kill.
        """
        if not self._started:
            return True
        drained = self.wait(timeout=timeout)
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
        for state in workers:
            state.inbox.put(None)
        deadline = None if timeout is None else time.monotonic() + timeout
        for state in workers:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            state.process.join(remaining)
            if state.process.is_alive():
                drained = False
        if not drained:
            return False
        self._stop_monitor()
        return True

    def terminate(self) -> None:
        """Hard shutdown: kill every worker, fail every outstanding task."""
        if not self._started:
            return
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
            # Nothing will ever run the backlog or report the in-flight
            # tasks again: fail them all now so waiters unblock, the
            # scheduler hears about them, and the monitor can exit.
            self._backlog.clear()
            for task_id in list(self._tasks):
                self._finish_locked(task_id, None, "worker pool terminated")
        for state in workers:
            if state.process.is_alive():
                state.process.terminate()
        for state in workers:
            state.process.join(1.0)
        self._stop_monitor()
        self._fire_callbacks()

    def _stop_monitor(self) -> None:
        monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.join(2.0)
        self._started = False

    # -- submission --------------------------------------------------------------------

    def submit(self, task: WorkerTask) -> None:
        """Queue one task (the pool must be started)."""
        if not self._started:
            raise RuntimeError("pool is not started; call start() first")
        with self._lock:
            if task.task_id in self._tasks:
                raise ValueError(f"task {task.task_id!r} is already in flight")
            self._tasks[task.task_id] = _TaskState(task=task)
            self._backlog.append(task)
            self._assign_work_locked()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted task completed (or ``timeout`` expired)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._tasks:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining if remaining is not None else 1.0)
            return True

    def run_batch(
        self, tasks: Sequence[WorkerTask], timeout: Optional[float] = None
    ) -> Dict[str, Tuple[Optional[Dict[str, object]], Optional[str], int]]:
        """Submit a batch and block until it drains.

        Returns ``{task_id: (payload, error, attempts)}`` — exactly one
        of ``payload`` / ``error`` is set per task.  Raises
        :class:`TimeoutError` when the batch does not finish in time.
        Only meaningful on a pool without an ``on_result`` callback (the
        callback consumes completions instead of the batch table).
        """
        for task in tasks:
            self.submit(task)
        if not self.wait(timeout=timeout):
            raise TimeoutError(f"worker pool batch did not finish within {timeout}s")
        with self._lock:
            # pop: the table holds completions only until collected, so
            # repeated batches on one pool don't accumulate payloads.
            return {task.task_id: self._completed.pop(task.task_id) for task in tasks}

    @property
    def inflight(self) -> int:
        """Tasks submitted but not yet completed."""
        with self._lock:
            return len(self._tasks)

    @property
    def alive_workers(self) -> int:
        """Workers whose processes are currently alive."""
        with self._lock:
            return sum(1 for state in self._workers.values() if state.process.is_alive())

    def counters(self) -> Dict[str, int]:
        """Supervision tallies since construction: ``jobs_done`` /
        ``jobs_failed`` / ``crashes`` / ``timeouts`` / ``retries`` /
        ``callback_errors``.

        Always maintained (no registry needed) — this is what
        ``repro serve status`` renders, so a crashed-and-retried task is
        visible even on a server that never enabled metrics.
        """
        with self._lock:
            return dict(self._counters)

    def worker_stats(self) -> List[Dict[str, object]]:
        """One row per live worker: id, pid, liveness, current task, jobs done."""
        with self._lock:
            return [
                {
                    "worker_id": worker_id,
                    "pid": state.process.pid,
                    "alive": state.process.is_alive(),
                    "current_task": state.current_task,
                    "jobs_done": state.jobs_done,
                }
                for worker_id, state in sorted(self._workers.items())
            ]

    def _bump_obs_counter(self, outcome: str) -> None:
        """Mirror one supervision event into the metrics registry (if enabled)."""
        obs = self._obs
        if obs is not None:
            obs.counter("pool.tasks", outcome=outcome).inc()

    def _sample_obs(self) -> None:
        """~1 Hz registry gauges: fleet size, in-flight tasks, per-worker RSS.

        Runs on the monitor thread between supervision sweeps; when the
        registry is disabled this is one attribute check per poll tick.
        """
        obs = self._obs
        if obs is None:
            return
        now = time.monotonic()
        if now - self._last_rss_sample < self._rss_sample_interval:
            return
        self._last_rss_sample = now
        with self._lock:
            backlog = len(self._backlog)
            inflight = len(self._tasks)
            rows = [
                (worker_id, state.process.pid, state.process.is_alive())
                for worker_id, state in self._workers.items()
            ]
        obs.gauge("pool.backlog").set(backlog)
        obs.gauge("pool.inflight").set(inflight)
        obs.gauge("pool.workers_alive").set(sum(1 for _, _, alive in rows if alive))
        for worker_id, pid, alive in rows:
            if alive and pid is not None:
                obs_proc.sample_rss(
                    obs, pid=pid, gauge="pool.worker_rss_bytes", worker=str(worker_id)
                )

    # -- supervision -------------------------------------------------------------------

    def _assign_work_locked(self) -> None:
        """Hand backlog tasks to idle workers (caller holds the lock)."""
        if self._stopping:
            return
        for worker_id, worker in self._workers.items():
            if not self._backlog:
                return
            if worker.current_task is not None or not worker.process.is_alive():
                continue
            task = self._backlog.popleft()
            state = self._tasks.get(task.task_id)
            if state is None:  # completed elsewhere (stale retry) — skip
                continue
            state.attempts += 1
            state.running_on = worker_id
            state.assigned_monotonic = time.monotonic()
            worker.current_task = task.task_id
            worker.inbox.put(task)

    def _monitor_loop(self) -> None:
        assert self._result_queue is not None
        while True:
            with self._lock:
                if self._stopping and not self._tasks:
                    return
            try:
                message = self._result_queue.get(timeout=self._poll_interval)
            except queue_module.Empty:
                message = None
            # Drain greedily: liveness checks must only run once the
            # backlog of completion messages is empty, or a worker that
            # finished its task and exited could be mistaken for a
            # crash-with-task.
            while message is not None:
                self._handle_message(message)
                try:
                    message = self._result_queue.get_nowait()
                except queue_module.Empty:
                    message = None
            self._check_workers()
            self._check_timeouts()
            self._fire_callbacks()
            self._sample_obs()

    def _handle_message(self, message: Tuple) -> None:
        kind, worker_id, task_id, body = message
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None and worker.current_task == task_id:
                worker.current_task = None
            state = self._tasks.get(task_id)
            if state is None:  # duplicate completion of a retried task
                self._assign_work_locked()
                return
            if kind == "done":
                self._counters["jobs_done"] += 1
                if worker is not None:
                    worker.jobs_done += 1
                self._finish_locked(task_id, body, None)
            else:
                # A Python exception is deterministic: no retry.
                self._counters["jobs_failed"] += 1
                self._finish_locked(task_id, None, body)
            self._bump_obs_counter("done" if kind == "done" else "failed")
            self._assign_work_locked()

    def _check_workers(self) -> None:
        with self._lock:
            for worker_id, worker in list(self._workers.items()):
                if worker.process.is_alive():
                    continue
                orphaned = worker.current_task
                del self._workers[worker_id]
                if not self._stopping:
                    # Any death outside shutdown is a crash (sentinel
                    # exits only happen while stopping).
                    self._counters["crashes"] += 1
                    self._bump_obs_counter("crash")
                if orphaned is not None:
                    self._retry_or_fail_locked(
                        orphaned,
                        f"worker crashed (exit code {worker.process.exitcode})",
                    )
                if not self._stopping:
                    self._spawn_worker_locked()
            self._assign_work_locked()

    def _check_timeouts(self) -> None:
        if self.task_timeout is None:
            return
        now = time.monotonic()
        with self._lock:
            for task_id, state in list(self._tasks.items()):
                if state.assigned_monotonic is None:
                    continue
                if now - state.assigned_monotonic <= self.task_timeout:
                    continue
                worker = (
                    self._workers.pop(state.running_on)
                    if state.running_on in self._workers
                    else None
                )
                if worker is not None:
                    worker.current_task = None
                    if worker.process.is_alive():
                        worker.process.terminate()
                        worker.process.join(1.0)
                    if not self._stopping:
                        self._spawn_worker_locked()
                self._counters["timeouts"] += 1
                self._bump_obs_counter("timeout")
                self._retry_or_fail_locked(
                    task_id, f"task timed out after {self.task_timeout}s"
                )
            self._assign_work_locked()

    def _retry_or_fail_locked(self, task_id: str, error: str) -> None:
        state = self._tasks.get(task_id)
        if state is None:
            return
        state.running_on = None
        state.assigned_monotonic = None
        # During shutdown there is no fleet left to retry on — requeueing
        # would strand the task and keep the monitor alive forever.
        if state.attempts < self.max_attempts and not self._stopping:
            self._counters["retries"] += 1
            self._bump_obs_counter("retry")
            self._backlog.append(state.task)
            return
        self._counters["jobs_failed"] += 1
        self._bump_obs_counter("failed")
        self._finish_locked(task_id, None, error)

    def _finish_locked(self, task_id: str, payload: Optional[Dict[str, object]], error: Optional[str]) -> None:
        state = self._tasks.pop(task_id, None)
        attempts = state.attempts if state is not None else 0
        if payload is not None:
            payload = dict(payload)
            payload["attempts"] = attempts
        if self._on_result is None:
            # Batch mode: completions wait in the table until run_batch
            # collects (and removes) them.  In callback mode the callback
            # is the consumer — keeping payloads here too would grow a
            # shadow copy of the results store for the server's lifetime.
            self._completed[task_id] = (payload, error, attempts)
        self._pending_callbacks.append((task_id, payload, error, attempts))
        self._idle.notify_all()

    def _fire_callbacks(self) -> None:
        """Deliver queued completions outside the lock (callbacks may re-enter)."""
        if self._on_result is None:
            with self._lock:
                self._pending_callbacks.clear()
            return
        while True:
            with self._lock:
                if not self._pending_callbacks:
                    return
                task_id, payload, error, attempts = self._pending_callbacks.pop(0)
            try:
                self._on_result(task_id, payload, error, attempts)
            except Exception:  # noqa: BLE001 - a callback bug must not kill the monitor
                # ...but it must not be silent either: a broken watcher
                # means results are being dropped on the floor.  Tally it
                # (``serve status`` renders the counters) and log it.
                with self._lock:
                    self._counters["callback_errors"] += 1
                obs = self._obs
                if obs is not None:
                    obs.counter("pool.callback_errors").inc()
                _log.warning(
                    "result callback raised for task %s; completion dropped",
                    task_id,
                    exc_info=True,
                )


def run_batch(
    tasks: Sequence[WorkerTask],
    workers: int = 2,
    task_timeout: Optional[float] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Tuple[Optional[Dict[str, object]], Optional[str], int]]:
    """One-shot convenience: start a pool, run ``tasks``, shut it down."""
    pool = WorkerPool(workers=workers, task_timeout=task_timeout).start()
    try:
        return pool.run_batch(tasks, timeout=timeout)
    finally:
        if not pool.close(timeout=5.0):
            pool.terminate()
