"""Synthetic trace generators: random workloads, scalability scenarios, suite."""

from .random_trace import TOPOLOGIES, RandomTraceConfig, generate_trace
from .scenarios import (
    DEFAULT_EVENTS,
    DEFAULT_THREAD_COUNTS,
    PAPER_THREAD_COUNTS,
    SCENARIOS,
    fifty_locks_skewed_trace,
    pairwise_communication_trace,
    single_lock_trace,
    star_topology_trace,
)
from .suite import (
    BenchmarkProfile,
    default_suite,
    families,
    generate_suite,
    get_profile,
    profile_names,
)

__all__ = [
    "BenchmarkProfile",
    "DEFAULT_EVENTS",
    "DEFAULT_THREAD_COUNTS",
    "PAPER_THREAD_COUNTS",
    "RandomTraceConfig",
    "SCENARIOS",
    "TOPOLOGIES",
    "default_suite",
    "families",
    "fifty_locks_skewed_trace",
    "generate_suite",
    "generate_trace",
    "get_profile",
    "pairwise_communication_trace",
    "profile_names",
    "single_lock_trace",
    "star_topology_trace",
]
