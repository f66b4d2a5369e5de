"""The declarative benchmark suites behind ``repro-bench run``.

A suite is a list of :class:`BenchCase` values — pure data, no timing
logic — so that what gets measured is inspectable (``repro-bench list``)
and stable across runs: the artifact's case names are the join keys of
``repro-bench compare``, so they must not depend on machine, time or
ordering.

The built-in suites:

``clocks``
    Micro-benchmarks of the clock data structures alone: the recorded
    join/copy op log (:mod:`repro.bench.kernels`) of the Figure-10
    scalability scenarios, replayed per clock class.  This is where the
    TreeClock hot-path optimizations show up most directly.

``session``
    Macro-benchmarks: full multi-spec :class:`repro.api.Session` walks
    over scalability scenarios and benchmark-suite profiles, one walk
    per case, with every spec's per-feed time attributed separately
    (the artifact keeps a ``sub`` entry per spec).

``serve``
    Service benchmarks: end-to-end **jobs/sec** through the
    :mod:`repro.serve` worker pool (a small corpus of scenario traces
    fanned out as (trace × spec) cells across worker processes) and
    streaming-ingest **events/sec** through a live loopback TCP server
    (STD lines batched over the socket into an incremental session).
    Pool startup and server startup happen outside the timed region, so
    the numbers measure the steady-state service, not process spawning.

``pipeline``
    Event-pipeline benchmarks: decode **events/sec** of the per-event
    file decoders with and without the batch chunker (STD, CSV and the
    binary colf container — plus a ``colf-columns`` case that reads
    the raw column cells without the footer-table mapping), and
    multi-spec session walks fed full batches (the default) vs one-event
    batches (``Session.feed``) vs straight from an mmap'd colf container
    (``colf-mmap``).  The batched/per-event case pairs share identical
    workloads, so their ratio *is* the measured win of the batching
    layer — and a regression in either shape is caught separately.

``obs``
    Observability-overhead benchmarks: the same multi-spec session walks
    as the ``session`` suite, measured twice per case — once with the
    default :mod:`repro.obs.metrics` registry disabled (the headline
    ``runs_ns``, comparable against the committed baseline) and once
    enabled (the ``sub`` series).  The case's ``meta`` reports
    ``enabled_overhead_pct``; the contract is disabled ≈ free (one
    attribute check per batch) and enabled within a few percent.

``paper``
    The cells of the paper's evaluation: timed ``session`` cases and,
    beside each, a counted ``work`` case.
    ``paper/table2/<profile>/<ORDER>`` walks one benchmark-suite profile
    (at :func:`repro.gen.suite.default_suite`'s event count for the
    suite ``scale``) with the four specs of one Table-2 column pair:
    ``<o>+vc``, ``<o>+tc``, ``<o>+vc+detect`` and ``<o>+tc+detect``.
    ``paper/figure10/<scenario>-t<k>`` walks one Figure-10 scalability
    point with ``hb+vc`` and ``hb+tc``.  ``paper/work/<profile>/<ORDER>``
    and ``paper/work/<scenario>-t<k>/HB`` record the same workload's
    VTWork, VCWork and TCWork (Figures 8 and 9, Figure 10's work
    column) and its trace statistics (Tables 1 and 3).
    :mod:`repro.experiments` renders every table and figure from these
    same cases.

Extra session cases over *captured* trace files can be appended with
``repro-bench run --trace FILE`` — the file is streamed lazily through a
:class:`repro.api.FileSource`, so real recorded workloads ride the same
harness as the synthetic ones.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..gen.scenarios import SCENARIOS
from ..gen.suite import default_suite

#: Default analysis specs of a ``session`` case: the paper's central
#: TC-vs-VC comparison, with and without the detection component.
DEFAULT_SESSION_SPECS: Tuple[str, ...] = ("hb+tc", "hb+vc", "shb+tc+detect", "shb+vc+detect")

#: Scalability scenarios exercised by the default suites (a subset of
#: :data:`repro.gen.scenarios.SCENARIOS`, chosen to span the spectrum:
#: the tree-clock best case, the star pattern, and the worst case).
DEFAULT_SCENARIOS: Tuple[str, ...] = ("single_lock", "star_topology", "pairwise_communication")

#: Thread counts of the default clock-kernel cases.
DEFAULT_THREAD_COUNTS: Tuple[int, ...] = (10, 40)

#: Benchmark-suite profiles used by the default ``session`` suite.
DEFAULT_PROFILES: Tuple[str, ...] = ("bufwriter-like", "drb-counter-16-like")


@dataclass(frozen=True)
class BenchCase:
    """One benchmark case: a stable name, a kind, and its parameters.

    ``kind`` selects the measurement procedure: it is a key of
    :mod:`repro.bench.runner`'s ``_RUNNERS`` table.  ``params`` is plain
    JSON-serializable data describing the workload.
    """

    name: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human-readable description for ``repro-bench list``."""
        details = ", ".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        return f"{self.name} [{self.kind}] ({details})"


def clocks_suite(
    events: int = 2000,
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    clocks: Sequence[str] = ("TC", "VC"),
    seed: int = 0,
) -> List[BenchCase]:
    """The ``clocks`` suite: op-log replay kernels, one case per cell."""
    cases: List[BenchCase] = []
    for scenario in scenarios:
        for threads in thread_counts:
            for clock in clocks:
                cases.append(
                    BenchCase(
                        name=f"clock_ops/{scenario}-t{threads}/{clock}",
                        kind="clock_ops",
                        params={
                            "scenario": scenario,
                            "threads": threads,
                            "events": events,
                            "seed": seed,
                            "order": "hb",
                            "clock": clock,
                        },
                    )
                )
    return cases


def session_suite(
    events: int = 2000,
    scenarios: Sequence[str] = ("single_lock", "star_topology"),
    thread_counts: Sequence[int] = (10,),
    profiles: Sequence[str] = DEFAULT_PROFILES,
    specs: Sequence[str] = DEFAULT_SESSION_SPECS,
    seed: int = 0,
    trace_files: Sequence[str] = (),
) -> List[BenchCase]:
    """The ``session`` suite: one multi-spec session walk per workload."""
    spec_list = list(specs)
    cases: List[BenchCase] = []
    for scenario in scenarios:
        for threads in thread_counts:
            cases.append(
                BenchCase(
                    name=f"session/{scenario}-t{threads}",
                    kind="session",
                    params={
                        "source": "scenario",
                        "scenario": scenario,
                        "threads": threads,
                        "events": events,
                        "seed": seed,
                        "specs": spec_list,
                    },
                )
            )
    for profile in profiles:
        cases.append(
            BenchCase(
                name=f"session/profile-{profile}",
                kind="session",
                params={"source": "profile", "profile": profile, "events": events, "specs": spec_list},
            )
        )
    for path in trace_files:
        cases.append(
            BenchCase(
                name=f"session/file-{Path(path).name}",
                kind="session",
                params={"source": "file", "path": str(path), "specs": spec_list},
            )
        )
    return cases


#: Analysis specs of the default ``serve`` jobs cases: the service's
#: canonical TC-vs-VC detection fan-out.
DEFAULT_SERVE_SPECS: Tuple[str, ...] = ("hb+tc+detect", "shb+vc+detect")

#: Worker-pool sizes exercised by the default ``serve`` suite.
DEFAULT_SERVE_WORKERS: Tuple[int, ...] = (2, 4)


def serve_suite(
    events: int = 2000,
    scenarios: Sequence[str] = ("single_lock", "star_topology", "pairwise_communication"),
    thread_counts: Sequence[int] = (10,),
    specs: Sequence[str] = DEFAULT_SERVE_SPECS,
    workers: Sequence[int] = DEFAULT_SERVE_WORKERS,
    ingest_batch: int = 32,
    seed: int = 0,
) -> List[BenchCase]:
    """The ``serve`` suite: worker-pool jobs/sec and streaming-ingest events/sec."""
    spec_list = list(specs)
    threads = int(thread_counts[0]) if thread_counts else 10
    cases: List[BenchCase] = []
    for worker_count in workers:
        cases.append(
            BenchCase(
                name=f"serve/jobs-w{worker_count}",
                kind="serve_jobs",
                params={
                    "scenarios": list(scenarios),
                    "threads": threads,
                    "events": events,
                    "seed": seed,
                    "specs": spec_list,
                    "workers": worker_count,
                },
            )
        )
    for scenario in scenarios[:1]:
        cases.append(
            BenchCase(
                name=f"serve/ingest-{scenario}",
                kind="serve_ingest",
                params={
                    "scenario": scenario,
                    "threads": threads,
                    "events": events,
                    "seed": seed,
                    "specs": spec_list,
                    "batch": ingest_batch,
                },
            )
        )
    return cases


def obs_suite(
    events: int = 2000,
    scenarios: Sequence[str] = ("single_lock", "star_topology"),
    thread_counts: Sequence[int] = (10,),
    specs: Sequence[str] = DEFAULT_SESSION_SPECS,
    seed: int = 0,
) -> List[BenchCase]:
    """The ``obs`` suite: session walks, metrics disabled vs enabled."""
    spec_list = list(specs)
    threads = int(thread_counts[0]) if thread_counts else 10
    cases: List[BenchCase] = []
    for scenario in scenarios:
        cases.append(
            BenchCase(
                name=f"obs/session-{scenario}-t{threads}",
                kind="obs_session",
                params={
                    "scenario": scenario,
                    "threads": threads,
                    "events": events,
                    "seed": seed,
                    "specs": spec_list,
                },
            )
        )
    return cases


#: Decode formats exercised by the default ``pipeline`` suite.
DEFAULT_PIPELINE_FORMATS: Tuple[str, ...] = ("std", "csv", "colf")

#: Walk modes of the ``pipeline`` suite: the batched default, one-event
#: batches through ``Session.feed``, and the mmap'd colf fast path (same
#: events, same specs, same results in every mode).
PIPELINE_WALK_MODES: Tuple[str, ...] = ("batched", "events", "colf-mmap")


def pipeline_suite(
    events: int = 2000,
    scenarios: Sequence[str] = ("single_lock", "star_topology"),
    thread_counts: Sequence[int] = (10,),
    formats: Sequence[str] = DEFAULT_PIPELINE_FORMATS,
    specs: Sequence[str] = DEFAULT_SESSION_SPECS,
    seed: int = 0,
) -> List[BenchCase]:
    """The ``pipeline`` suite: chunked decode and full-vs-one-event batch walks."""
    spec_list = list(specs)
    threads = int(thread_counts[0]) if thread_counts else 10
    cases: List[BenchCase] = []
    for fmt in formats:
        decode_modes = ("batched", "events", "columns") if fmt == "colf" else ("batched", "events")
        for mode in decode_modes:
            cases.append(
                BenchCase(
                    name=f"pipeline/decode-{fmt}-{mode}",
                    kind="decode",
                    params={
                        "scenario": "single_lock",
                        "threads": threads,
                        "events": events,
                        "seed": seed,
                        "fmt": fmt,
                        "mode": mode,
                    },
                )
            )
    for scenario in scenarios:
        for mode in PIPELINE_WALK_MODES:
            cases.append(
                BenchCase(
                    name=f"pipeline/walk-{mode}/{scenario}-t{threads}",
                    kind="pipeline_walk",
                    params={
                        "scenario": scenario,
                        "threads": threads,
                        "events": events,
                        "seed": seed,
                        "specs": spec_list,
                        "mode": mode,
                    },
                )
            )
    return cases


#: The partial orders of the paper's evaluation, in the order it lists them.
PAPER_ORDERS: Tuple[str, ...] = ("MAZ", "SHB", "HB")


def table2_case_name(profile: str, order: str) -> str:
    """The ``paper`` suite's name for the Table-2 case of one (profile, order)."""
    return f"paper/table2/{profile}/{order.upper()}"


def work_case_name(workload: str, order: str) -> str:
    """The ``paper`` suite's name for the work case of one (workload, order).

    ``workload`` is a profile name or a Figure-10 point's ``<scenario>-t<k>``.
    """
    return f"paper/work/{workload}/{order.upper()}"


def paper_suite(
    scale: float = 0.1,
    max_profiles: Optional[int] = None,
    events: int = 2000,
    scenarios: Sequence[str] = tuple(SCENARIOS),
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    seed: int = 0,
) -> List[BenchCase]:
    """The ``paper`` suite: the Table-2 cells and the Figure-10 points.

    ``scale`` and ``max_profiles`` select the suite profiles as
    :func:`repro.gen.suite.default_suite` does; ``events``,
    ``scenarios``, ``thread_counts`` and ``seed`` size the Figure-10
    points; empty ``scenarios`` leave them out.  Every timed case is
    followed by the ``work`` case of its workload.
    """
    cases: List[BenchCase] = []
    for profile in default_suite(scale=scale, max_profiles=max_profiles):
        workload = {"source": "profile", "profile": profile.name, "events": profile.config.num_events}
        for order in PAPER_ORDERS:
            prefix = order.lower()
            cases.append(
                BenchCase(
                    name=table2_case_name(profile.name, order),
                    kind="session",
                    params={
                        **workload,
                        "specs": [
                            f"{prefix}+vc",
                            f"{prefix}+tc",
                            f"{prefix}+vc+detect",
                            f"{prefix}+tc+detect",
                        ],
                    },
                )
            )
            cases.append(
                BenchCase(
                    name=work_case_name(profile.name, order),
                    kind="work",
                    params={**workload, "order": order.upper()},
                )
            )
    for scenario in scenarios:
        for threads in thread_counts:
            workload = {
                "source": "scenario",
                "scenario": scenario,
                "threads": threads,
                "events": events,
                "seed": seed,
            }
            point = f"{scenario}-t{threads}"
            cases.append(
                BenchCase(
                    name=f"paper/figure10/{point}",
                    kind="session",
                    params={**workload, "specs": ["hb+vc", "hb+tc"]},
                )
            )
            cases.append(
                BenchCase(
                    name=work_case_name(point, "HB"),
                    kind="work",
                    params={**workload, "order": "HB"},
                )
            )
    return cases


#: Suite name -> builder.  :func:`suite_cases` dispatches through this
#: registry, forwarding only the global knobs a builder's signature
#: declares — registering a new suite here is the whole integration.
SUITES: Dict[str, Callable[..., List[BenchCase]]] = {
    "clocks": clocks_suite,
    "session": session_suite,
    "serve": serve_suite,
    "pipeline": pipeline_suite,
    "obs": obs_suite,
    "paper": paper_suite,
}


def suite_names() -> List[str]:
    """Names of the built-in suites."""
    return sorted(SUITES)


def suite_cases(
    suite: str,
    events: int = 2000,
    thread_counts: Sequence[int] = (),
    seed: int = 0,
    trace_files: Sequence[str] = (),
) -> List[BenchCase]:
    """Build the cases of one named suite with the given global knobs."""
    builder = SUITES.get(suite)
    if builder is None:
        raise KeyError(f"unknown benchmark suite {suite!r}; expected one of {suite_names()}")
    knobs: Dict[str, object] = {"events": events, "seed": seed, "trace_files": tuple(trace_files)}
    if thread_counts:
        knobs["thread_counts"] = tuple(thread_counts)
    accepted = inspect.signature(builder).parameters
    return builder(**{name: value for name, value in knobs.items() if name in accepted})
