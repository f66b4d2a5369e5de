"""Tree clocks for causal orderings in concurrent executions.

A from-scratch reproduction of "A Tree Clock Data Structure for Causal
Orderings in Concurrent Executions" (ASPLOS 2022).  The package provides

* :mod:`repro.trace` — the execution-trace substrate (events, traces,
  builders, validation, serialization, statistics),
* :mod:`repro.clocks` — the clock data structures: the classic
  :class:`~repro.clocks.VectorClock` and the paper's
  :class:`~repro.clocks.TreeClock`,
* :mod:`repro.analysis` — streaming algorithms computing the HB, SHB and
  MAZ partial orders with either clock, race detection, and a graph-based
  correctness oracle,
* :mod:`repro.metrics` — work measurements (VTWork / VCWork / TCWork);
  timing is :mod:`repro.bench`'s,
* :mod:`repro.gen` — synthetic trace generators (random workloads, the
  paper's scalability scenarios, and a benchmark-suite stand-in),
* :mod:`repro.experiments` — runners that regenerate every table and
  figure of the paper's evaluation,
* :mod:`repro.capture` — live trace capture from *real* multithreaded
  Python programs (instrumented locks/threads/shared cells, a
  whole-script runner with ``threading`` patched in, and online race
  detection driving the analyses incrementally while the program runs),
* :mod:`repro.api` — the unified streaming session API: one
  :class:`~repro.api.Session` drives many analysis specs
  (``parse_spec("hb+tc+detect")``) through a single pass over any
  :class:`~repro.api.EventSource` (in-memory trace, lazily streamed
  trace file, live capture, synthetic generator),
* :mod:`repro.bench` — reproducible performance measurement, and the
  one timer (the experiments' Table-2 and Figure-10 cells are its
  ``paper`` suite): the ``repro-bench`` CLI runs declarative
  micro/macro benchmark suites (clock join/copy kernels, full session
  walks) under a warmup/repeat/min-of-N discipline, emits schema-versioned
  ``BENCH_<suite>.json`` artifacts, and diffs two artifacts with a
  regression threshold for CI gating,
* :mod:`repro.serve` — the concurrent trace-analysis service: a
  content-addressed trace corpus, a digest-sharded job queue feeding a
  crash-isolated ``multiprocessing`` worker pool, and a JSON-lines TCP
  protocol with whole-trace submission *and* live streaming ingest
  (``repro serve`` / ``repro submit`` / ``repro status``).

Session quickstart
------------------
Run several evaluation-matrix cells over one event walk:

>>> from repro import Session, TraceBuilder
>>> trace = (
...     TraceBuilder()
...     .write(1, "x").write(2, "x")
...     .build()
... )
>>> result = Session(["shb+tc+detect", "shb+vc+detect"]).run(trace)
>>> [r.detection.race_count for _, r in result]
[1, 1]

Quickstart
----------
>>> from repro import TraceBuilder, TreeClock, VectorClock, HBAnalysis
>>> trace = (
...     TraceBuilder()
...     .write(1, "x").acquire(1, "l").release(1, "l")
...     .acquire(2, "l").release(2, "l").write(2, "x")
...     .build()
... )
>>> result = HBAnalysis(TreeClock, detect=True).run(trace)
>>> result.detection.race_count
0

Online detection quickstart
---------------------------
Capture a real two-thread program and detect its races *while it runs*:

>>> from repro.capture import OnlineDetector, Shared, capture, spawn
>>> with capture(name="live") as recorder:
...     detector = OnlineDetector(recorder, order="SHB")
...     counter = Shared(0, name="counter")
...     workers = [spawn(lambda: counter.set(counter.get() + 1)) for _ in range(2)]
...     for worker in workers:
...         worker.join()
>>> detector.finish().detection.race_count > 0
True

The same machinery is available from the command line as
``repro capture my_script.py`` (see :mod:`repro.capture.cli`), which
also saves captured traces in STD/CSV (optionally gzipped) for replay.
"""

from .analysis import (
    AnalysisResult,
    GraphOrder,
    HBAnalysis,
    MAZAnalysis,
    Race,
    SHBAnalysis,
    compute_hb,
    compute_maz,
    compute_shb,
    detect_races,
    find_races,
    has_race,
)
from .clocks import (
    ClockContext,
    Epoch,
    TreeClock,
    VectorClock,
    WorkCounter,
)
from .trace import (
    Event,
    OpKind,
    Trace,
    TraceBuilder,
    compute_statistics,
    iter_trace_file,
    load_trace,
    save_trace,
)
from .api import (
    AnalysisSpec,
    CaptureSource,
    EventSource,
    FileSource,
    GeneratorSource,
    QueueSource,
    Session,
    SessionResult,
    TraceSource,
    as_event_source,
    parse_spec,
    register_clock,
    register_order,
    run_specs,
)
from . import api  # noqa: E402  (bound as an attribute, like `capture` below)

# Bind the capture subsystem as an attribute so `from repro import capture`
# works; its names stay namespaced (repro.capture.Shared, ...) because
# several (e.g. `capture`, `spawn`) are too generic for the top level.
from . import capture  # noqa: E402  (import order: capture needs the packages above)

__version__ = "1.2.0"


def __getattr__(name: str):
    # The service subsystem is namespaced like `capture`
    # (repro.serve.TraceCorpus, ...) but bound lazily: it pulls in
    # socketserver/multiprocessing/gzip, which a plain `repro analyze`
    # never needs — the same reason repro.bench stays out of the eager
    # package root.
    if name == "serve":
        import importlib

        return importlib.import_module(".serve", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnalysisResult",
    "AnalysisSpec",
    "CaptureSource",
    "ClockContext",
    "Epoch",
    "Event",
    "EventSource",
    "FileSource",
    "GeneratorSource",
    "GraphOrder",
    "HBAnalysis",
    "MAZAnalysis",
    "OpKind",
    "QueueSource",
    "Race",
    "SHBAnalysis",
    "Session",
    "SessionResult",
    "Trace",
    "TraceBuilder",
    "TraceSource",
    "TreeClock",
    "VectorClock",
    "WorkCounter",
    "__version__",
    "api",
    "as_event_source",
    "capture",
    "compute_hb",
    "compute_maz",
    "compute_shb",
    "compute_statistics",
    "detect_races",
    "find_races",
    "has_race",
    "iter_trace_file",
    "load_trace",
    "parse_spec",
    "register_clock",
    "register_order",
    "run_specs",
    "save_trace",
    "serve",
]
