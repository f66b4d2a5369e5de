#!/usr/bin/env python3
"""Race detection on a synthetic "bank" workload (HB vs SHB, TC vs VC).

The scenario mirrors the kind of workload the paper's Java benchmarks
(e.g. ``account``) exercise: a number of teller threads transfer money
between accounts.  Most transfers take the per-account locks correctly,
but a configurable fraction "forgets" the locks, producing real data
races.  The example then:

1. detects races with the HB and SHB partial orders (tree clocks),
2. shows that the race counts are identical with vector clocks, and
3. compares the time and the number of data-structure entries touched by
   the two clock implementations.

Run with::

    python examples/race_detection_bank.py [--tellers 8] [--transfers 400]
"""

import argparse
import random

from repro import SHBAnalysis, HBAnalysis, Session, TraceBuilder, TreeClock, VectorClock
from repro.metrics import measure_work


def build_bank_trace(tellers: int, accounts: int, transfers: int, buggy_fraction: float, seed: int):
    """A trace of money transfers; a fraction of them skip the account locks."""
    rng = random.Random(seed)
    builder = TraceBuilder(name="bank")
    for _ in range(transfers):
        teller = rng.randrange(1, tellers + 1)
        source = rng.randrange(accounts)
        target = rng.randrange(accounts)
        buggy = rng.random() < buggy_fraction
        if buggy:
            # Unsynchronized read-modify-write on both balances.
            builder.read(teller, f"balance{source}").write(teller, f"balance{source}")
            builder.read(teller, f"balance{target}").write(teller, f"balance{target}")
        else:
            builder.acquire(teller, f"account{source}")
            builder.read(teller, f"balance{source}").write(teller, f"balance{source}")
            builder.release(teller, f"account{source}")
            builder.acquire(teller, f"account{target}")
            builder.read(teller, f"balance{target}").write(teller, f"balance{target}")
            builder.release(teller, f"account{target}")
    return builder.build()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tellers", type=int, default=8, help="number of teller threads")
    parser.add_argument("--accounts", type=int, default=16, help="number of bank accounts")
    parser.add_argument("--transfers", type=int, default=400, help="number of transfers")
    parser.add_argument("--buggy", type=float, default=0.05, help="fraction of unlocked transfers")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    trace = build_bank_trace(args.tellers, args.accounts, args.transfers, args.buggy, args.seed)
    print(
        f"Generated bank trace: {len(trace)} events, {trace.num_threads} tellers, "
        f"{len(trace.variables)} balances, {len(trace.locks)} account locks"
    )

    # -- race detection with HB and SHB ------------------------------------------
    for analysis_class in (HBAnalysis, SHBAnalysis):
        result = analysis_class(TreeClock, detect=True).run(trace)
        racy_variables = sorted(str(v) for v in result.detection.racy_variables)
        print(
            f"\n{result.partial_order} (tree clocks): {result.detection.race_count} racy access"
            f" pairs on {len(racy_variables)} balances"
        )
        print(f"  racy balances: {', '.join(racy_variables[:8])}"
              + (" ..." if len(racy_variables) > 8 else ""))
        vc_count = analysis_class(VectorClock, detect=True).run(trace).detection.race_count
        assert vc_count == result.detection.race_count
        print(f"  vector clocks report the same count ({vc_count}) — the data structure is a drop-in replacement")

    # -- cost comparison -----------------------------------------------------------
    print("\nCost of computing HB (partial order only):")
    timing = Session(["hb+vc", "hb+tc"]).run(trace)  # both clocks ride one walk
    vc_ms = timing["hb+vc"].elapsed_ns / 1e6
    tc_ms = timing["hb+tc"].elapsed_ns / 1e6
    work = measure_work(trace, HBAnalysis)
    print(f"  wall clock: VC {vc_ms:.1f} ms vs TC {tc_ms:.1f} ms (speedup {vc_ms / tc_ms:.2f}x)")
    print(f"  entries touched: VC {work.vc_work} vs TC {work.tc_work}"
          f" (work ratio {work.vc_over_tc:.2f}x, inherent minimum {work.vt_work})")


if __name__ == "__main__":
    main()
