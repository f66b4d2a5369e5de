"""Workload inputs, generated from the benchmark seed.

The program under test only ever sees the files written here (and, for
``served-corpus``, the STD text sent over the socket); the generators
run in the benchmark process before anything is timed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

from common import sub_seed

#: Per-workload walk specs: the TC walk and the VC walk of one trace.
WALK_SPECS: Dict[str, Tuple[List[str], List[str]]] = {
    "hb-star": (["hb+tc"], ["hb+vc"]),
    "access-detect": (
        ["hb+tc+detect", "shb+tc+detect", "maz+tc+detect"],
        ["hb+vc+detect", "shb+vc+detect", "maz+vc+detect"],
    ),
    # serve's defaults: one TC job and one VC job per trace.
    "served-corpus": (["hb+tc+detect"], ["shb+vc+detect"]),
}

HB_STAR_FILES = 8
HB_STAR_THREADS = 64
HB_STAR_EVENTS = 50_000

ACCESS_FILES = 24
ACCESS_PROFILE = "tradebeans-like"
ACCESS_EVENTS = 4_000

#: The served corpus: (kind, generator name, threads or 0, events).
#: Seven small traces and one of 100k events, so that about one trace in
#: ten (one in eight) crosses the scheduler's default segment-parallel
#: threshold.  The large one is lock-only: its detectors find no races, so
#: its result payload stays small and its latency is submit, ingest, the
#: parallel walk and persist rather than race serialization.
SERVED_POOL: Tuple[Tuple[str, str, int, int], ...] = (
    ("scenario", "single_lock", 16, 4_000),
    ("profile", "tradebeans-like", 0, 4_000),
    ("scenario", "star_topology", 32, 4_000),
    ("profile", "xalan-like", 0, 4_000),
    ("profile", "comd-56-like", 0, 4_000),
    ("profile", "hsqldb-like", 0, 4_000),
    ("profile", "batik-like", 0, 4_000),
    ("scenario", "fifty_locks_skewed", 40, 100_000),
)


@dataclass(frozen=True)
class TraceFile:
    name: str
    path: str
    events: int


def _profile_trace(profile: str, events: int, seed: int, name: str):
    from repro.gen.random_trace import generate_trace
    from repro.gen.suite import get_profile

    config = get_profile(profile).config
    return generate_trace(replace(config, name=name, num_events=events, seed=seed))


def _scenario_trace(scenario: str, threads: int, events: int, seed: int, name: str):
    from repro.gen.scenarios import SCENARIOS
    from repro.trace.trace import Trace

    trace = SCENARIOS[scenario](threads, events, seed)
    return Trace(trace.events, name=name)


def hb_star_trace(seed: int, index: int, events: int = HB_STAR_EVENTS):
    return _scenario_trace(
        "star_topology", HB_STAR_THREADS, events, sub_seed(seed, 1, index), f"hb-star-{index}"
    )


def access_trace(seed: int, index: int, events: int = ACCESS_EVENTS):
    return _profile_trace(ACCESS_PROFILE, events, sub_seed(seed, 2, index), f"access-{index}")


def served_trace(seed: int, index: int):
    kind, generator, threads, events = SERVED_POOL[index]
    name = f"served-{index}-{generator}"
    if kind == "scenario":
        return _scenario_trace(generator, threads, events, sub_seed(seed, 3, index), name)
    return _profile_trace(generator, events, sub_seed(seed, 3, index), name)


def pairwise_trace(seed: int, events: int = 20_000):
    """The tree-clock worst case (every pair of 16 threads shares a lock)."""
    return _scenario_trace("pairwise_communication", 16, events, sub_seed(seed, 4), "pairwise-t16")


def big_served_index() -> int:
    return max(range(len(SERVED_POOL)), key=lambda index: SERVED_POOL[index][3])


def write_workload(workload: str, seed: int, directory: Path) -> List[TraceFile]:
    """Generate and write the workload's trace files; returns them in order."""
    from repro.trace.io import save_trace

    if workload == "hb-star":
        traces = [hb_star_trace(seed, index) for index in range(HB_STAR_FILES)]
        fmt, suffix = "colf", ".colf"
    elif workload == "access-detect":
        traces = [access_trace(seed, index) for index in range(ACCESS_FILES)]
        fmt, suffix = "std", ".std"
    elif workload == "served-corpus":
        traces = [served_trace(seed, index) for index in range(len(SERVED_POOL))]
        fmt, suffix = "std", ".std"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = []
    for trace in traces:
        path = directory / f"{trace.name}{suffix}"
        save_trace(trace, path, fmt=fmt)
        files.append(TraceFile(name=trace.name, path=str(path), events=len(trace)))
    return files
