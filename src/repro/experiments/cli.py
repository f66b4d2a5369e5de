"""Command-line entry point for the experiment runners.

Usage (after ``pip install -e .``)::

    repro-experiments list
    repro-experiments table2 --scale 0.5 --repetitions 1
    repro-experiments all --scale 0.25 --max-profiles 8
    repro-experiments sweep --scale 0.05 --repetitions 1 --json sweep.json
    python -m repro.experiments figure10 --events 5000 --threads 10 20 40

Each experiment prints a plain-text report whose rows correspond to the
table or figure of the paper it reproduces.  ``sweep`` instead runs the
whole session sweep (every trace × order × clock × ±analysis cell, one
shared walk per (trace, order) pair) and emits a machine-readable JSON
document — the CI benchmark smoke job uploads it as an artifact so perf
regressions leave a trail.  One :class:`SuiteRunner` serves every
experiment of a command, so ``all`` times each cell once.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from ..cli_util import package_version
from . import figure6, figure7, figure8, figure9, figure10, table1, table2, table3
from .figure10 import ScalabilityConfig
from .reporting import ExperimentReport
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
        choices=sorted(EXPERIMENTS) + ["all", "list", "sweep"],
        help="which experiment to run ('all' runs every one, 'list' only lists "
        "them, 'sweep' runs the full session sweep and emits JSON)",
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
        default=None,
        help="thread counts for the scalability sweep (figure10)",
    )
    parser.add_argument(
        "--server",
        metavar="HOST:PORT",
        default=None,
        help="delegate the sweep to a running `repro serve` instance (sweep only)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the sweep's JSON payload to PATH ('-' for stdout; sweep only)",
    )
    return parser


def _run_experiment(name: str, args: argparse.Namespace, runner: SuiteRunner) -> ExperimentReport:
    if name == "figure10":
        scalability = ScalabilityConfig(
            thread_counts=tuple(args.threads) if args.threads else ScalabilityConfig().thread_counts,
            num_events=args.events,
        )
        return figure10.run(runner.config, scalability)
    return EXPERIMENTS[name].run(runner.config, runner)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name, module in sorted(EXPERIMENTS.items()):
            first_line = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {first_line}")
        return 0
    if args.server and args.experiment != "sweep":
        print("error: --server applies to the 'sweep' experiment only", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig(
            scale=args.scale,
            repetitions=args.repetitions,
            orders=tuple(args.orders),
            max_profiles=args.max_profiles,
            server=args.server,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = SuiteRunner(config)
    if args.experiment == "sweep":
        payload = runner.sweep()
        document = json.dumps(payload, indent=2)
        if args.json is None or args.json == "-":
            print(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            cells = payload.get("speedups", payload.get("cells", []))
            print(f"sweep written to {args.json} ({len(cells)} cells)")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        report = _run_experiment(name, args, runner)
        print(report.render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
