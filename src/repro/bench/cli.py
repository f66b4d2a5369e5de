"""``repro-bench`` — run benchmark suites and gate on regressions.

Also reachable as ``repro bench``.  Three subcommands:

``run``
    Measure one or more suites and write a ``BENCH_<suite>.json``
    artifact per suite into ``--out``.

``compare``
    Diff a current artifact against a baseline artifact; exits 1 when
    any case slowed down by more than ``--threshold`` percent (plus, in
    ``--strict`` mode, when baseline cases are missing), 2 on unusable
    inputs.  ``--json`` emits the machine-readable report.

``list``
    Print the cases a suite would measure, without measuring.

Examples
--------
::

    repro-bench run --suite clocks --suite session --out artifacts/
    repro-bench run --suite clocks --events 5000 --repeats 5 --threads 10,40,80
    repro-bench compare benchmarks/baselines/BENCH_clocks.json artifacts/BENCH_clocks.json
    repro-bench compare old.json new.json --threshold 25 --verbose
    repro bench list --suite session
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..cli_util import add_observability_args, configure_observability, package_version
from .artifact import artifact_path, load_artifact, make_artifact, write_artifact
from .compare import compare_artifacts, format_report
from .runner import BenchConfig, run_suite
from .suites import suite_cases, suite_names


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run reproducible benchmark suites and compare runs for regressions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure suites and write BENCH_<suite>.json artifacts")
    run.add_argument(
        "--suite",
        action="append",
        choices=suite_names(),
        help="suite to run (repeatable; default: all suites)",
    )
    run.add_argument("--out", default=".", help="directory for the BENCH_<suite>.json artifacts")
    run.add_argument("--events", type=int, default=2000, help="events per generated workload")
    run.add_argument("--repeats", type=int, default=3, help="timed repeats per case (min-of-N)")
    run.add_argument("--warmup", type=int, default=1, help="untimed warmup runs per case")
    run.add_argument("--seed", type=int, default=0, help="seed for the generated workloads")
    run.add_argument(
        "--threads",
        default=None,
        help="comma-separated thread counts for the generated workloads (e.g. 10,40,80)",
    )
    run.add_argument(
        "--trace",
        action="append",
        default=[],
        metavar="FILE",
        help="captured trace file (STD/CSV[.gz]) to add as a session case (repeatable)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-case progress output")
    add_observability_args(run)

    compare = commands.add_parser("compare", help="diff two artifacts and fail on regression")
    compare.add_argument("baseline", help="baseline BENCH_<suite>.json")
    compare.add_argument("current", help="current BENCH_<suite>.json")
    compare.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default: 10; use hundreds across machines)",
    )
    compare.add_argument(
        "--min-ns",
        type=float,
        default=50_000.0,
        help="ignore cases whose times are below this many nanoseconds (noise floor)",
    )
    compare.add_argument(
        "--strict",
        action="store_true",
        help="also fail when baseline cases are missing from the current artifact",
    )
    compare.add_argument("--verbose", action="store_true", help="print every compared case, not only flagged ones")
    compare.add_argument("--json", action="store_true", help="emit the machine-readable report on stdout")

    lister = commands.add_parser("list", help="print the cases of a suite without measuring")
    lister.add_argument(
        "--suite",
        action="append",
        choices=suite_names(),
        help="suite to list (repeatable; default: all suites)",
    )
    lister.add_argument("--events", type=int, default=2000, help="events knob (affects case params only)")
    return parser


def _selected_suites(names: Optional[List[str]]) -> List[str]:
    return list(dict.fromkeys(names)) if names else suite_names()


def _thread_counts(text: Optional[str]) -> List[int]:
    if not text:
        return []
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise SystemExit(f"error: --threads expects comma-separated integers, got {text!r}") from error
    if any(count < 2 for count in counts):
        raise SystemExit("error: --threads entries must be >= 2")
    return list(dict.fromkeys(counts))


def _command_run(args: argparse.Namespace) -> int:
    try:
        config = BenchConfig(warmup=args.warmup, repeats=args.repeats)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.events < 10:
        print("error: --events must be >= 10", file=sys.stderr)
        return 2
    thread_counts = _thread_counts(args.threads)
    say = (lambda message: None) if args.quiet else (lambda message: print(message, file=sys.stderr))
    for suite in _selected_suites(args.suite):
        cases = suite_cases(
            suite,
            events=args.events,
            thread_counts=thread_counts,
            seed=args.seed,
            trace_files=args.trace if suite == "session" else (),
        )
        say(f"suite {suite!r}: {len(cases)} cases, {config.repeats} repeats, {config.warmup} warmup")
        results = run_suite(cases, config, progress=lambda name: say(f"  measuring {name}"))
        path = write_artifact(artifact_path(args.out, suite), make_artifact(suite, results, config))
        say(f"wrote {path}")
        for result in results:
            say(f"  {result.name}: best {result.best_ns / 1e6:.3f} ms ({result.per_event_ns:.0f} ns/event)")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    try:
        baseline = load_artifact(args.baseline)
        current = load_artifact(args.current)
        report = compare_artifacts(
            baseline, current, threshold_pct=args.threshold, min_ns=args.min_ns
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failed = not report.ok or (args.strict and bool(report.missing))
    if args.json:
        payload = report.as_dict()
        payload["strict"] = args.strict
        payload["failed"] = failed
        print(json.dumps(payload, indent=2))
    else:
        print(format_report(report, verbose=args.verbose))
        if args.strict and report.missing and report.ok:
            print(f"comparison FAILED (strict: {len(report.missing)} baseline cases missing)")
    return 1 if failed else 0


def _command_list(args: argparse.Namespace) -> int:
    for suite in _selected_suites(args.suite):
        print(f"suite {suite!r}:")
        for case in suite_cases(suite, events=args.events):
            print(f"  {case.describe()}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    configure_observability(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "list":
        return _command_list(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
