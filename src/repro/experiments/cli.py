"""Command-line entry point for the experiment runners.

Usage (after ``pip install -e .``)::

    repro-experiments list
    repro-experiments table2 --scale 0.5 --repetitions 1
    repro-experiments all --scale 0.25 --max-profiles 8
    python -m repro.experiments figure10 --events 5000 --threads 10 20 40

Each experiment prints a plain-text report whose rows correspond to the
table or figure of the paper it reproduces.  Its numbers come from the
cases of the ``paper`` bench suite (``repro-bench run --suite paper``
writes the same cases as a ``BENCH_paper.json`` artifact).  One
:class:`SuiteRunner` serves every experiment of a command, so ``all``
measures each case once.  A repeated ``--orders`` or ``--threads``
entry counts once.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..cli_util import package_version
from ..gen.scenarios import DEFAULT_THREAD_COUNTS
from . import figure6, figure7, figure8, figure9, figure10, table1, table2, table3
from .runner import DEFAULT_ORDERS, ExperimentConfig, SuiteRunner

#: Experiment name → module with a ``run`` function.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-experiments`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the tree-clock paper's evaluation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="which experiment to run ('all' runs every one, 'list' only lists them)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="suite event-count multiplier")
    parser.add_argument(
        "--repetitions", type=int, default=1, help="timing repetitions per measurement (paper: 3)"
    )
    parser.add_argument(
        "--max-profiles", type=int, default=None, help="limit the number of suite profiles"
    )
    parser.add_argument(
        "--orders",
        nargs="+",
        default=list(DEFAULT_ORDERS),
        help="partial orders to include (MAZ SHB HB)",
    )
    parser.add_argument(
        "--events", type=int, default=10_000, help="events per scalability trace (figure10)"
    )
    parser.add_argument(
        "--threads",
        nargs="+",
        type=int,
        default=list(DEFAULT_THREAD_COUNTS),
        help="thread counts for the scalability sweep (figure10)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name, module in sorted(EXPERIMENTS.items()):
            first_line = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {first_line}")
        return 0
    try:
        config = ExperimentConfig(
            scale=args.scale,
            repetitions=args.repetitions,
            orders=tuple(dict.fromkeys(order.upper() for order in args.orders)),
            max_profiles=args.max_profiles,
            events=args.events,
            thread_counts=tuple(dict.fromkeys(args.threads)),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = SuiteRunner(config)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(EXPERIMENTS[name].run(config, runner).render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
