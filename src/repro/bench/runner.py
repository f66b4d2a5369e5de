"""The measurement discipline: warmup, repeats, best-of-N, GC time recorded.

Python timing is noisy — allocator state, dict resizing, branch caches
in the interpreter loop, a GC pass landing mid-measurement.  The runner
therefore applies the standard discipline uniformly to every case:

* the workload is **prepared outside the timed region** (traces
  generated, op logs recorded), and each trace is generated once:
  consecutive cases of one workload share it (:func:`case_trace`,
  :func:`run_suite`);
* ``warmup`` untimed runs absorb first-touch effects;
* ``repeats`` timed runs are all recorded in the artifact, with
  **min-of-N** (``best_ns``) as the headline number — the minimum is the
  best estimate of the true cost, since noise in user-space timing is
  strictly additive — next to their median and interquartile range
  (``median_ns`` / ``iqr_ns``, :func:`median_iqr`), which show the spread;
* a full collection runs before each case, and the cyclic garbage
  collector stays on while timing, as it is when the program runs:
  what a walk leaves for the collector is part of its cost.  Each
  repeat's collector time goes into the case's ``meta["gc_ns"]`` (one
  entry per repeat, from a :data:`gc.callbacks` hook, which runs only
  at collections in this process), so a repeat that a collection
  landed in shows as such.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api import Session
from ..api.registry import CLOCKS, ORDERS
from ..api.sources import EventSource, FileSource, TraceSource
from ..gen.scenarios import SCENARIOS
from ..gen.suite import get_profile
from ..metrics.work import measure_work
from ..trace.stats import compute_statistics
from ..trace.trace import Trace
from .kernels import ClockOpLog, record_clock_ops, replay_clock_ops
from .suites import BenchCase

#: Generated traces by workload (the keys :func:`case_trace` files them under).
Traces = Dict[Tuple[object, ...], Trace]


@dataclass(frozen=True)
class BenchConfig:
    """Run-wide measurement knobs (recorded in the artifact)."""

    warmup: int = 1
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def median_iqr(runs_ns: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range (q3 - q1) of a timing series.

    The IQR is 0 for a single run.  The experiment tables read their
    cell times through this helper too, so a table cell and the
    artifact's ``median_ns`` are the same number.
    """
    if len(runs_ns) < 2:
        return float(runs_ns[0]), 0.0
    q1, median, q3 = statistics.quantiles(runs_ns, n=4, method="inclusive")
    return median, q3 - q1


def _series_fields(runs_ns: Sequence[float]) -> Dict[str, float]:
    """The summary numbers the artifact reports for one timing series."""
    median, iqr = median_iqr(runs_ns)
    return {
        "best_ns": min(runs_ns),
        "mean_ns": sum(runs_ns) / len(runs_ns),
        "median_ns": median,
        "iqr_ns": iqr,
    }


@dataclass
class BenchCaseResult:
    """The measured numbers of one case.

    ``events`` is the workload size in trace events; ``runs_ns`` the raw
    wall time of every timed repeat; ``sub`` optional named sub-series
    (the per-spec feed times of a session case).
    """

    name: str
    kind: str
    params: Mapping[str, object]
    events: int
    runs_ns: List[int]
    sub: Dict[str, List[int]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def best_ns(self) -> int:
        """Min-of-N: the headline number compared across runs."""
        return min(self.runs_ns)

    @property
    def per_event_ns(self) -> float:
        """``best_ns`` normalized by the workload size."""
        return self.best_ns / self.events if self.events else float(self.best_ns)

    def as_dict(self) -> Dict[str, object]:
        """The artifact representation of this case."""
        payload: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "params": dict(self.params),
            "events": self.events,
            "repeats": len(self.runs_ns),
            "runs_ns": list(self.runs_ns),
            **_series_fields(self.runs_ns),
            "per_event_ns": self.per_event_ns,
        }
        if self.sub:
            payload["sub"] = {
                key: {"runs_ns": list(runs), **_series_fields(runs)}
                for key, runs in self.sub.items()
            }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload


def _timed_runs(fn: Callable[[], object], config: BenchConfig) -> Tuple[List[int], List[int]]:
    """Apply the warmup/repeat discipline to ``fn``.

    Returns the raw wall ns of each repeat and the ns the cyclic garbage
    collector ran inside each repeat.
    """
    perf = time.perf_counter_ns
    # [ns collecting so far, start of the running collection]
    collector = [0, 0]

    def on_collection(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            collector[1] = perf()
        else:
            collector[0] += perf() - collector[1]

    gc.collect()
    gc.callbacks.append(on_collection)
    try:
        for _ in range(config.warmup):
            fn()
        runs: List[int] = []
        gc_ns: List[int] = []
        for _ in range(config.repeats):
            collected = collector[0]
            started = perf()
            fn()
            runs.append(perf() - started)
            gc_ns.append(collector[0] - collected)
        return runs, gc_ns
    finally:
        gc.callbacks.remove(on_collection)


def _workload(params: Mapping[str, object]) -> Optional[Tuple[object, ...]]:
    """The generator arguments a case's params name, or ``None`` for no one trace.

    A suite profile with its ``events``, or a scenario with its
    ``threads``, ``events`` and ``seed``.  Cases with equal workloads
    have equal traces.
    """
    if "profile" in params:
        return (params["profile"], params.get("events"))
    if "scenario" in params:
        return (params["scenario"], params["threads"], params["events"], params.get("seed", 0))
    return None


def case_trace(params: Mapping[str, object], traces: Optional[Traces] = None) -> Trace:
    """The trace of a case's workload, generated unless ``traces`` holds it.

    The workload is a suite profile, resized to ``events`` when given,
    or a scalability scenario.  A trace generated here is added to
    ``traces`` when given.
    """
    key = _workload(params)
    if key is None:
        raise ValueError(f"case params name no profile or scenario: {dict(params)}")
    if traces is not None and key in traces:
        return traces[key]
    if "profile" in params:
        profile = get_profile(str(params["profile"]))
        if params.get("events") is not None:
            config = replace(profile.config, num_events=int(params["events"]))  # type: ignore[call-overload]
            profile = replace(profile, config=config)
        trace = profile.generate()
    else:
        scenario, threads, events, seed = key
        trace = SCENARIOS[str(scenario)](int(threads), int(events), int(seed))  # type: ignore[call-overload]
    if traces is not None:
        traces[key] = trace
    return trace


def _run_clock_ops_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    trace = case_trace(case.params, traces)
    log: ClockOpLog = record_clock_ops(trace, order=str(case.params.get("order", "hb")))
    clock_class = CLOCKS.get(str(case.params["clock"]))
    runs, gc_ns = _timed_runs(lambda: replay_clock_ops(clock_class, log), config)
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=len(trace),
        runs_ns=runs,
        meta={
            "ops": len(log),
            "joins": log.num_joins,
            "copies": log.num_copies,
            "threads": len(log.threads),
            "gc_ns": gc_ns,
        },
    )


def _session_source(params: Mapping[str, object], traces: Traces) -> EventSource:
    """A session case's events: its trace file, streamed, or its workload's trace."""
    if params.get("source") == "file":
        return FileSource(str(params["path"]))
    return TraceSource(case_trace(params, traces))


def _run_session_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    specs = [str(spec) for spec in case.params["specs"]]  # type: ignore[index]
    source = _session_source(case.params, traces)
    session = Session(specs)
    sub: Dict[str, List[int]] = {}
    events = threads = 0

    def one_walk() -> None:
        nonlocal events, threads
        result = session.run(source)
        events, threads = result.num_events, result.primary.num_threads
        for key, analysis_result in result:
            sub.setdefault(key, []).append(analysis_result.elapsed_ns)

    runs, gc_ns = _timed_runs(one_walk, config)
    # Warmup walks also appended to ``sub``; keep only the timed tail so
    # every series has exactly ``repeats`` entries.
    sub = {key: series[-config.repeats :] for key, series in sub.items()}
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=events,
        runs_ns=runs,
        sub=sub,
        meta={
            "specs": specs,
            "source": str(case.params.get("source", "scenario")),
            "threads": threads,
            "gc_ns": gc_ns,
        },
    )


def _run_work_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    """Counted case: the paper's work metrics of one (trace, order) pair.

    One :func:`~repro.metrics.work.measure_work` call on the case's
    trace (a profile or a scenario, as for ``session`` cases): a VC and
    a TC walk with work counting, whose ``entries_updated`` counts are
    cross-checked.  ``meta`` records ``threads``, ``vt_work``,
    ``vc_work`` and ``tc_work``, and under ``stats`` the trace's
    :class:`~repro.trace.stats.TraceStatistics` fields, which Tables 1
    and 3 read.  The counts are deterministic, so the walks run once
    whatever ``config`` says; ``runs_ns`` holds their wall time only
    because every case carries one.
    """
    params = case.params
    trace = case_trace(params, traces)
    started = time.perf_counter_ns()
    work = measure_work(trace, ORDERS.get(str(params["order"])))
    elapsed = time.perf_counter_ns() - started
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=params,
        events=work.num_events,
        runs_ns=[elapsed],
        meta={
            "threads": work.num_threads,
            "vt_work": work.vt_work,
            "vc_work": work.vc_work,
            "tc_work": work.tc_work,
            "stats": asdict(compute_statistics(trace)),
        },
    )


def _run_obs_session_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    """Observability overhead: the same walk with metrics off, then on.

    The headline ``runs_ns`` is the *disabled* series — that is the
    default CLI/library configuration, and comparing it against the
    committed baseline is what catches instrumentation creeping onto the
    hot path.  The enabled series rides in ``sub`` and the measured
    enabled-vs-disabled delta in ``meta["enabled_overhead_pct"]``.
    Both phases run the identical session and source under the same
    warmup/repeat discipline; the registry is restored (and wiped of the
    bench's instruments) afterwards.
    """
    from ..obs import metrics as obs_metrics

    specs = [str(spec) for spec in case.params["specs"]]  # type: ignore[index]
    source = _session_source(case.params, traces)
    session = Session(specs)
    events = 0

    def one_walk() -> None:
        nonlocal events
        events = session.run(source).num_events

    registry = obs_metrics.get_registry()
    was_enabled = registry.enabled
    registry.disable()
    try:
        disabled, gc_ns = _timed_runs(one_walk, config)
        registry.enable()
        enabled, _ = _timed_runs(one_walk, config)
    finally:
        registry.enabled = was_enabled
        registry.reset()
    overhead_pct = (min(enabled) - min(disabled)) / min(disabled) * 100.0
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=events,
        runs_ns=disabled,
        sub={"disabled": disabled, "enabled": enabled},
        meta={
            "specs": specs,
            "enabled_overhead_pct": round(overhead_pct, 2),
            "disabled_best_ns": min(disabled),
            "enabled_best_ns": min(enabled),
            "gc_ns": gc_ns,
        },
    )


def _run_serve_jobs_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    """End-to-end service throughput: (trace × spec) cells through a worker pool.

    One timed repeat = submitting the whole corpus fan-out as a batch and
    draining it.  The corpus is ingested and the pool is started (worker
    processes forked) *outside* the timed region, so the measurement is
    steady-state jobs/sec, not process-spawn latency.
    """
    import tempfile
    from pathlib import Path

    from ..serve.corpus import TraceCorpus
    from ..serve.pool import WorkerPool, WorkerTask

    params = case.params
    specs = [str(spec) for spec in params["specs"]]  # type: ignore[index]
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        corpus = TraceCorpus(Path(tmp) / "corpus")
        entries = []
        for scenario in params["scenarios"]:  # type: ignore[index]
            entry, _ = corpus.ingest(case_trace({**params, "scenario": scenario}))
            entries.append(entry)
        pool = WorkerPool(workers=int(params["workers"])).start()
        batch_index = 0

        def one_batch() -> None:
            nonlocal batch_index
            batch_index += 1  # fresh task ids per repeat: no in-flight collisions
            tasks = [
                WorkerTask(
                    task_id=f"{entry.digest[:8]}:{spec}#{batch_index}",
                    trace_path=str(corpus.trace_path(entry.digest)),
                    spec=spec,
                    trace_name=entry.name,
                )
                for entry in entries
                for spec in specs
            ]
            for task_id, (payload, error, _) in pool.run_batch(tasks, timeout=600).items():
                if error is not None:
                    raise RuntimeError(f"serve bench job {task_id} failed: {error}")

        try:
            runs, gc_ns = _timed_runs(one_batch, config)
        finally:
            if not pool.close(timeout=10.0):
                pool.terminate()
    jobs = len(entries) * len(specs)
    events_total = sum(entry.events for entry in entries) * len(specs)
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=events_total,
        runs_ns=runs,
        meta={
            "jobs": jobs,
            "traces": len(entries),
            "workers": int(params["workers"]),
            "jobs_per_sec": round(jobs / (min(runs) / 1e9), 3),
            "gc_ns": gc_ns,
        },
    )


def _run_serve_ingest_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    """Streaming-ingest throughput: STD lines over a live loopback server.

    One timed repeat = one full stream (begin, batched feeds, end)
    against a :class:`repro.serve.TraceServer` started outside the timed
    region, so the number is sustained protocol + incremental-session
    events/sec on the loopback interface.
    """
    import tempfile
    import threading
    from pathlib import Path

    from ..serve.client import ServeClient
    from ..serve.server import TraceServer
    from ..trace.io import std_line

    params = case.params
    specs = [str(spec) for spec in params["specs"]]  # type: ignore[index]
    batch = int(params.get("batch", 32))
    trace = case_trace(params, traces)
    lines = [std_line(event) for event in trace]
    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as tmp:
        server = TraceServer(("127.0.0.1", 0), Path(tmp) / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        stream_index = 0
        try:
            client = ServeClient(host, port, timeout=600.0)
            try:

                def one_stream() -> None:
                    nonlocal stream_index
                    stream_index += 1
                    stream = client.stream_begin(f"{trace.name}-{stream_index}", specs)
                    for start in range(0, len(lines), batch):
                        stream.feed_lines(lines[start : start + batch])
                    stream.end()

                runs, gc_ns = _timed_runs(one_stream, config)
            finally:
                client.close()
        finally:
            server.close()
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=len(lines),
        runs_ns=runs,
        meta={
            "batch": batch,
            "specs": specs,
            "events_per_sec": round(len(lines) / (min(runs) / 1e9), 1),
            "gc_ns": gc_ns,
        },
    )


def _run_decode_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    """Decode throughput: parse a trace file, chunked vs per-event.

    The trace is generated and written to a temp file *outside* the
    timed region; one timed repeat = one full decode of the file —
    ``mode="events"`` drains :func:`repro.trace.io.iter_trace_file`,
    the one per-event decoder of each text format, and
    ``mode="batched"`` drains :func:`repro.trace.io.iter_trace_chunks`,
    the same decoder cut into lists by the shared chunker.  Both parse
    the identical bytes, so for the text formats the pair isolates the
    cost of the chunker.  colf's batched mode cuts column batches and
    builds no Event (what a session walk decodes); its events mode
    builds every one.

    For colf files a third ``mode="columns"`` reads the raw cells
    (kind codes, tid indices, target indices) straight off the mmap
    without mapping them through the footer tables — the floor under
    the batched decode.
    """
    import tempfile
    from pathlib import Path

    from ..trace.io import iter_trace_chunks, iter_trace_file, save_trace

    params = case.params
    fmt = str(params.get("fmt", "std"))
    mode = str(params.get("mode", "batched"))
    trace = case_trace(params, traces)
    with tempfile.TemporaryDirectory(prefix="repro-bench-decode-") as tmp:
        path = Path(tmp) / f"trace.{fmt}"
        save_trace(trace, path, fmt=fmt)

        if mode == "batched":

            def one_decode() -> None:
                for _batch in iter_trace_chunks(path, fmt=fmt):
                    pass

        elif mode == "events":

            def one_decode() -> None:
                for _event in iter_trace_file(path, fmt=fmt):
                    pass

        elif mode == "columns" and fmt == "colf":
            from ..trace.colfmt import ColfReader

            def one_decode() -> None:
                with ColfReader(path) as reader:
                    for segment in reader.segments:
                        segment.kind_codes.tolist()
                        segment.tid_indices.tolist()
                        segment.target_indices.tolist()

        else:
            raise ValueError(f"unknown decode mode {mode!r} for format {fmt!r}")

        runs, gc_ns = _timed_runs(one_decode, config)
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=len(trace),
        runs_ns=runs,
        meta={
            "fmt": fmt,
            "mode": mode,
            "events_per_sec": round(len(trace) / (min(runs) / 1e9), 1),
            "gc_ns": gc_ns,
        },
    )


def _run_pipeline_walk_case(case: BenchCase, config: BenchConfig, traces: Traces) -> BenchCaseResult:
    """Multi-spec session walk: full batches (default) vs one-event batches.

    All modes drive the identical events through the same specs and
    produce the identical results (the differential tests prove it);
    ``mode="events"`` feeds one event per ``Session.feed`` call, i.e. a
    singleton batch through the same ``feed_batch`` walk, so the
    batched/events pair measures exactly what batch size buys the
    walk, and ``mode="colf-mmap"`` feeds the session straight from an
    mmap'd colf container (packed outside the timed region), measuring
    the walk with binary segment decode in place of in-memory slicing.
    """
    from ..api.sources import TraceSource, iter_event_batches

    params = case.params
    specs = [str(spec) for spec in params["specs"]]  # type: ignore[index]
    mode = str(params.get("mode", "batched"))
    trace = case_trace(params, traces)
    session = Session(specs)

    if mode == "colf-mmap":
        import tempfile
        from pathlib import Path

        from ..api.sources import ColfSource
        from ..trace.colfmt import write_colf

        with tempfile.TemporaryDirectory(prefix="repro-bench-walk-") as tmp:
            path = Path(tmp) / "trace.colf"
            write_colf(iter(trace), path)
            source = ColfSource(path, name=trace.name)
            threads = source.threads()

            def one_walk() -> None:
                session.begin(threads=threads, name=trace.name)
                feed_batch = session.feed_batch
                for batch in source.event_batches():
                    feed_batch(batch)
                session.finish()

            try:
                runs, gc_ns = _timed_runs(one_walk, config)
            finally:
                source.close()
    else:
        if mode == "batched":

            def one_walk() -> None:
                session.begin(threads=trace.threads, name=trace.name)
                feed_batch = session.feed_batch
                for batch in iter_event_batches(TraceSource(trace)):
                    feed_batch(batch)
                session.finish()

        elif mode == "events":

            def one_walk() -> None:
                session.begin(threads=trace.threads, name=trace.name)
                feed = session.feed
                for event in trace:
                    feed(event)
                session.finish()

        else:
            raise ValueError(f"unknown pipeline walk mode {mode!r}")

        runs, gc_ns = _timed_runs(one_walk, config)
    return BenchCaseResult(
        name=case.name,
        kind=case.kind,
        params=case.params,
        events=len(trace),
        runs_ns=runs,
        meta={
            "mode": mode,
            "specs": specs,
            "events_per_sec": round(len(trace) / (min(runs) / 1e9), 1),
            "gc_ns": gc_ns,
        },
    )


#: Case kind -> measurement procedure.
_RUNNERS: Dict[str, Callable[[BenchCase, BenchConfig, Traces], BenchCaseResult]] = {
    "clock_ops": _run_clock_ops_case,
    "session": _run_session_case,
    "work": _run_work_case,
    "obs_session": _run_obs_session_case,
    "serve_jobs": _run_serve_jobs_case,
    "serve_ingest": _run_serve_ingest_case,
    "decode": _run_decode_case,
    "pipeline_walk": _run_pipeline_walk_case,
}


def run_case(
    case: BenchCase, config: Optional[BenchConfig] = None, traces: Optional[Traces] = None
) -> BenchCaseResult:
    """Prepare and measure one case under the standard discipline.

    The case's trace is taken from ``traces`` when it holds it, and
    added to it when generated (:func:`case_trace`).
    """
    runner = _RUNNERS.get(case.kind)
    if runner is None:
        raise ValueError(f"unknown bench case kind {case.kind!r}; expected one of {sorted(_RUNNERS)}")
    return runner(
        case, config if config is not None else BenchConfig(), {} if traces is None else traces
    )


def run_suite(
    cases: List[BenchCase],
    config: Optional[BenchConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    traces: Optional[Traces] = None,
) -> List[BenchCaseResult]:
    """Measure every case of a suite, in declaration order.

    Consecutive cases of one workload share its trace, generated once.
    Without ``traces`` a trace is dropped when the run moves on to
    another workload; with it, the traces it holds are used and those
    the run generates are added to it.
    """
    resolved = config if config is not None else BenchConfig()
    results: List[BenchCaseResult] = []
    for _, group in groupby(cases, key=lambda case: _workload(case.params)):
        shared = traces if traces is not None else {}
        for case in group:
            if progress is not None:
                progress(case.name)
            results.append(run_case(case, resolved, shared))
    return results
