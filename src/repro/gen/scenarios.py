"""The controlled scalability scenarios of Figure 10.

The paper evaluates scalability on four synthetic communication patterns,
with the number of threads varied between 10 and 360 while the trace
length and the pattern stay fixed:

(a) **single lock** — all threads synchronize through one common lock;
(b) **fifty locks, skewed** — 50 locks, 20% of the threads are five times
    more likely to act than the rest;
(c) **star topology** — ``k − 1`` client threads each communicate with a
    single server thread through a dedicated lock;
(d) **pairwise communication** — every pair of threads communicates
    through its own dedicated lock (the worst case for tree clocks).

Each generated trace consists purely of ``acq``/``rel`` pairs performed
by randomly chosen threads, exactly as described in Section 6
("Scalability").  The paper uses 10M events per trace; the default here
is much smaller because pure Python is interpreted, but the shape of the
comparison (who wins and how the gap scales with the thread count) is
preserved and the event count is a parameter.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..trace.trace import Trace
from .random_trace import RandomTraceConfig, generate_trace

#: Thread counts used by the paper's scalability plots.
PAPER_THREAD_COUNTS = (10, 60, 110, 160, 210, 260, 310, 360)

#: Scaled-down default thread counts for quick local runs.
DEFAULT_THREAD_COUNTS = (10, 20, 40, 80, 120)

#: Default number of events per scalability trace (the paper uses 10M).
DEFAULT_EVENTS = 20_000


def single_lock_trace(num_threads: int, num_events: int = DEFAULT_EVENTS, seed: int = 0) -> Trace:
    """Scenario (a): all threads communicate over a single common lock."""
    config = RandomTraceConfig(
        name=f"single-lock-t{num_threads}",
        num_threads=num_threads,
        num_locks=1,
        num_variables=1,
        num_events=num_events,
        sync_fraction=1.0,
        topology="shared",
        seed=seed,
    )
    return generate_trace(config)


def fifty_locks_skewed_trace(
    num_threads: int, num_events: int = DEFAULT_EVENTS, seed: int = 0
) -> Trace:
    """Scenario (b): 50 locks; 20% of the threads are 5× more active."""
    config = RandomTraceConfig(
        name=f"fifty-locks-skewed-t{num_threads}",
        num_threads=num_threads,
        num_locks=50,
        num_variables=1,
        num_events=num_events,
        sync_fraction=1.0,
        hot_thread_fraction=0.2,
        hot_thread_weight=5.0,
        topology="shared",
        seed=seed,
    )
    return generate_trace(config)


def star_topology_trace(num_threads: int, num_events: int = DEFAULT_EVENTS, seed: int = 0) -> Trace:
    """Scenario (c): clients communicate with one server via dedicated locks."""
    config = RandomTraceConfig(
        name=f"star-topology-t{num_threads}",
        num_threads=num_threads,
        num_locks=max(num_threads - 1, 1),
        num_variables=1,
        num_events=num_events,
        sync_fraction=1.0,
        topology="star",
        seed=seed,
    )
    return generate_trace(config)


def pairwise_communication_trace(
    num_threads: int, num_events: int = DEFAULT_EVENTS, seed: int = 0
) -> Trace:
    """Scenario (d): every pair of threads communicates via a dedicated lock."""
    config = RandomTraceConfig(
        name=f"pairwise-t{num_threads}",
        num_threads=num_threads,
        num_locks=num_threads * (num_threads - 1) // 2,
        num_variables=1,
        num_events=num_events,
        sync_fraction=1.0,
        topology="pairwise",
        seed=seed,
    )
    return generate_trace(config)


#: The four scenarios keyed by the labels used in Figure 10.
SCENARIOS: Dict[str, Callable[..., Trace]] = {
    "single_lock": single_lock_trace,
    "fifty_locks_skewed": fifty_locks_skewed_trace,
    "star_topology": star_topology_trace,
    "pairwise_communication": pairwise_communication_trace,
}
