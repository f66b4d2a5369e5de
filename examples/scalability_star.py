#!/usr/bin/env python3
"""Scalability demo: the star communication topology (Figure 10c).

The star topology — many client threads each synchronizing with a single
server thread through a dedicated lock — is the paper's showcase for tree
clocks: every join or copy touches only a constant number of tree-clock
entries, so the cost per event stays flat as the number of threads grows,
while the vector-clock cost grows linearly with the thread count.

The script sweeps the thread count, measures both clock implementations
on the HB computation, and prints wall-clock times together with the
machine-independent work counts (entries touched per event).

Run with::

    python examples/scalability_star.py [--events 10000] [--threads 10 40 80 160]
"""

import argparse

from repro import HBAnalysis, Session
from repro.gen import star_topology_trace
from repro.metrics import measure_work


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=8000, help="events per trace")
    parser.add_argument(
        "--threads", type=int, nargs="+", default=[10, 20, 40, 80, 160], help="thread counts to sweep"
    )
    parser.add_argument("--repetitions", type=int, default=1, help="timing repetitions")
    args = parser.parse_args()

    header = (
        f"{'threads':>8s} {'VC (ms)':>10s} {'TC (ms)':>10s} {'speedup':>8s} "
        f"{'VC entries/ev':>14s} {'TC entries/ev':>14s} {'work ratio':>10s}"
    )
    print(f"Star topology, {args.events} events per trace (HB computation)")
    print(header)
    print("-" * len(header))
    session = Session(["hb+vc", "hb+tc"])  # both clocks ride one walk per repetition
    for num_threads in args.threads:
        trace = star_topology_trace(num_threads, args.events)
        runs = [session.run(trace) for _ in range(args.repetitions)]
        vc_ms = sum(run["hb+vc"].elapsed_ns for run in runs) / len(runs) / 1e6
        tc_ms = sum(run["hb+tc"].elapsed_ns for run in runs) / len(runs) / 1e6
        work = measure_work(trace, HBAnalysis)
        print(
            f"{num_threads:>8d} {vc_ms:>10.1f} {tc_ms:>10.1f} "
            f"{vc_ms / tc_ms:>8.2f} {work.vc_work / work.num_events:>14.2f} "
            f"{work.tc_work / work.num_events:>14.2f} {work.vc_over_tc:>10.1f}"
        )
    print(
        "\nExpected shape (paper, Figure 10c): the vector-clock cost grows with the thread count\n"
        "while the tree-clock cost per event stays constant, so both the speedup and the work\n"
        "ratio increase with the number of threads."
    )


if __name__ == "__main__":
    main()
