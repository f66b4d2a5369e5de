"""``repro serve`` / ``repro submit`` / ``repro status`` — the service CLI.

``serve`` runs the TCP analysis service in the foreground; ``submit``
ships a local trace file to it and (optionally) waits for its jobs;
``status`` prints the scheduler counters or the finished race sets.

Examples
--------
::

    repro serve --corpus ./corpus --workers 4
    repro serve --host 127.0.0.1 --port 0 --corpus /tmp/corpus   # ephemeral port
    repro submit 127.0.0.1:7341 trace.std.gz --spec hb+tc+detect --spec shb+vc+detect --wait
    repro status 127.0.0.1:7341
    repro status 127.0.0.1:7341 --results --json
    repro status 127.0.0.1:7341 --shutdown
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Dict, Optional, Sequence

from ..cli_util import (
    add_observability_args,
    configure_observability,
    make_say,
    package_version,
)
from .client import ServeClient, ServeClientError
from .protocol import DEFAULT_PORT
from .server import serve


def _add_version(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )


# -- repro serve -------------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the concurrent trace-analysis service (corpus + worker pool + TCP).",
    )
    _add_version(parser)
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind (default: loopback)")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help=f"TCP port (default: {DEFAULT_PORT}; 0 = ephemeral)"
    )
    parser.add_argument(
        "--corpus", default="./repro-corpus", metavar="DIR", help="corpus directory (created if missing)"
    )
    parser.add_argument("--workers", type=int, default=2, help="analysis worker processes")
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout; a job exceeding it is retried once on a fresh worker",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="record distributed job spans (server + one file per worker pid) "
        "into DIR; reconstruct with 'repro obs timeline DIR'",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        metavar="N",
        help="crash/timeout retries per job before it is quarantined "
        "(default: the pool's retry-once policy)",
    )
    add_observability_args(parser)
    return parser


def main_serve(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro serve``; blocks until shutdown."""
    args = build_serve_parser().parse_args(argv)
    configure_observability(args)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    server = serve(
        args.host,
        args.port,
        args.corpus,
        workers=args.workers,
        task_timeout=args.job_timeout,
        obs_dir=args.obs_dir,
        retry_budget=args.retry_budget,
    )
    host, port = server.address
    # The first stdout line is machine-readable on purpose: wrappers (and
    # the integration tests) parse the bound address from it, which is
    # what makes `--port 0` usable.
    print(f"serving on {host}:{port} (corpus {args.corpus}, {args.workers} workers)", flush=True)
    if server.recovered_jobs:
        print(
            f"recovered {len(server.recovered_jobs)} orphaned job(s) from the journal",
            flush=True,
        )

    # Graceful shutdown on SIGTERM/SIGINT: stop accepting, drain the
    # pool, flush journal/results/metrics, exit 0 — so `kill <pid>` (and
    # a supervisor's stop) is a clean restart point, while `kill -9`
    # stays the crash the journal/checkpoint machinery recovers from.
    def _handle_signal(signum: int, _frame: object) -> None:
        name = signal.Signals(signum).name
        print(f"received {name}; draining and shutting down", file=sys.stderr, flush=True)
        server.begin_shutdown()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _handle_signal)
        except (ValueError, OSError):  # pragma: no cover - non-main thread embedding
            pass
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:  # pragma: no cover - SIGINT is normally handled above
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


# -- repro submit ------------------------------------------------------------------------


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a trace file to a running analysis server.",
    )
    _add_version(parser)
    parser.add_argument("address", help="server address as host:port")
    parser.add_argument("trace", help="trace file (STD/CSV[.gz])")
    parser.add_argument(
        "--spec",
        action="append",
        metavar="SPEC",
        help="analysis spec like 'hb+tc+detect' (repeatable; default: shb+tc+detect)",
    )
    parser.add_argument("--name", default=None, help="corpus name for the trace (default: file name)")
    parser.add_argument("--tag", action="append", default=[], metavar="TAG", help="corpus tag (repeatable)")
    parser.add_argument("--force", action="store_true", help="recompute cells already in the results store")
    parser.add_argument("--wait", action="store_true", help="block until the submitted jobs finish")
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="seconds to wait with --wait (default: 120)"
    )
    parser.add_argument("--json", action="store_true", help="emit the submission report as JSON on stdout")
    add_observability_args(parser)
    return parser


def main_submit(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro submit``.

    Exit codes: 0 = submitted (and, with ``--wait``, every job done),
    1 = some job FAILED, 2 = connection/usage error.
    """
    args = build_submit_parser().parse_args(argv)
    configure_observability(args)
    specs = args.spec if args.spec else ["shb+tc+detect"]
    say = make_say(args.json)
    failed_jobs = []
    try:
        with ServeClient.connect(args.address) as client:
            response = client.submit_file(
                args.trace, specs, name=args.name, tags=args.tag, force=args.force
            )
            digest = str(response["digest"])
            say(
                f"submitted {args.trace!r} as {digest[:12]} "
                f"({response['events']} events, {len(response['jobs'])} jobs queued, "
                f"{len(response['cached'])} cached)"
            )
            for job_id in response.get("quarantined", []):
                say(f"  {job_id}: QUARANTINED (release with --force)")
            if args.wait:
                # Wait on *this submission's* jobs only — another
                # client's backlog must not time us out.
                rows = client.wait_for_jobs(response["jobs"], timeout=args.timeout)
                failed_jobs = [
                    row for row in rows if row["status"] in ("failed", "quarantined")
                ]
                response = dict(response)
                response["jobs_detail"] = rows
                response["results"] = client.results(digest)
                for spec, payload in sorted(response["results"].items()):
                    races = payload.get("race_count")
                    label = f"{races} races" if races is not None else "no detector"
                    say(f"  {spec}: {label} ({payload.get('events')} events)")
                for row in failed_jobs:
                    say(f"  {row['job_id']}: FAILED after {row['attempts']} attempts: {row['error']}")
    except (ServeClientError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2))
    return 1 if failed_jobs else 0


# -- repro status ------------------------------------------------------------------------


def build_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro status",
        description="Query a running analysis server (job counts, results, shutdown).",
    )
    _add_version(parser)
    parser.add_argument("address", help="server address as host:port")
    parser.add_argument(
        "--results",
        nargs="?",
        const="",
        default=None,
        metavar="DIGEST",
        help="also fetch finished results (optionally only for one trace digest)",
    )
    parser.add_argument("--detail", action="store_true", help="include the per-job list")
    parser.add_argument("--shutdown", action="store_true", help="ask the server to shut down")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON on stdout")
    parser.add_argument(
        "--watch",
        nargs="?",
        const=2.0,
        type=float,
        default=None,
        metavar="SECONDS",
        help="live dashboard: poll the 'stats' op and redraw every SECONDS "
        "(default 2; Ctrl-C to stop)",
    )
    add_observability_args(parser)
    return parser


def _format_bytes(value: object) -> str:
    """``55.1MiB``-style rendering; ``-`` when the value is unknown."""
    if not isinstance(value, (int, float)) or value <= 0:
        return "-"
    size = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024:
            return f"{size:.1f}{unit}"
        size /= 1024
    return f"{size:.1f}TiB"


def _render_stats(stats: Dict[str, object]) -> None:
    """Print the operator view of one ``stats`` payload."""
    queue = stats.get("queue", {})
    throughput = stats.get("throughput", {})
    pool = stats.get("pool", {})
    print(
        f"uptime {stats.get('uptime_seconds', 0):.1f}s  "
        f"rss {_format_bytes(stats.get('rss_bytes'))}  "
        f"queue {queue.get('depth', 0)}  inflight {stats.get('inflight', 0)}  "
        f"results {stats.get('results', 0)}  "
        f"throughput {throughput.get('jobs_per_second', 0):.2f} jobs/s"
    )
    print(
        f"pool: {pool.get('jobs_done', 0)} done, {pool.get('jobs_failed', 0)} failed, "
        f"{pool.get('crashes', 0)} crashes, {pool.get('timeouts', 0)} timeouts, "
        f"{pool.get('retries', 0)} retries"
    )
    wait = queue.get("wait") if isinstance(queue, dict) else None
    if isinstance(wait, dict) and wait.get("count"):
        print(
            f"queue wait: {wait['count']} dispatches, "
            f"mean {wait.get('mean_ns', 0) / 1e6:.2f}ms, "
            f"max {(wait.get('max_ns') or 0) / 1e6:.2f}ms"
        )
    workers = stats.get("workers")
    if workers:
        print(f"{'  id':<6}{'pid':<9}{'alive':<7}{'jobs':<6}{'rss':<11}current")
        for row in workers:
            print(
                f"  {row.get('worker_id', '?'):<4}"
                f"{row.get('pid') or '-':<9}"
                f"{'yes' if row.get('alive') else 'NO':<7}"
                f"{row.get('jobs_done', 0):<6}"
                f"{_format_bytes(row.get('rss_bytes')):<11}"
                f"{row.get('current_task') or '-'}"
            )


def _watch_stats(client: ServeClient, address: str, interval: float, json_mode: bool) -> int:
    """The ``--watch`` loop: poll ``stats`` and redraw until Ctrl-C."""
    interval = max(0.05, interval)
    try:
        while True:
            stats = client.stats(metrics=json_mode)
            if json_mode:
                # One compact JSON document per tick — a machine-tailable
                # stream (`repro status addr --watch --json | jq ...`).
                print(json.dumps(stats, separators=(",", ":")), flush=True)
            else:
                print(f"-- {address} at {time.strftime('%H:%M:%S')} --")
                _render_stats(stats)
                print(flush=True)
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def main_status(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro status``.

    Exit codes: 0 = reported, 2 = server unreachable / protocol error.
    """
    args = build_status_parser().parse_args(argv)
    configure_observability(args)
    say = make_say(args.json)
    try:
        with ServeClient.connect(args.address) as client:
            if args.shutdown:
                client.shutdown()
                say(f"server at {args.address} is shutting down")
                if args.json:
                    print(json.dumps({"ok": True, "stopping": True}, indent=2))
                return 0
            if args.watch is not None:
                return _watch_stats(client, args.address, args.watch, args.json)
            status = client.status(detail=args.detail)
            # Only --json prints the metrics snapshot, so only it asks for one.
            payload = {"status": status, "stats": client.stats(metrics=args.json)}
            if args.results is not None:
                digest = args.results or None
                payload["results"] = client.results(digest)
    except (ServeClientError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    corpus = status["corpus"]
    scheduler = status["scheduler"]
    jobs = scheduler["jobs"]
    print(
        f"server {args.address}: corpus {corpus['traces']} traces / {corpus['events']} events, "
        f"{scheduler['workers']} workers"
    )
    print(
        f"jobs: {jobs['pending']} pending, {jobs['running']} running, "
        f"{jobs['done']} done, {jobs['failed']} failed, "
        f"{jobs.get('quarantined', 0)} quarantined"
    )
    recovery = status.get("recovery") or {}
    quarantine = scheduler.get("quarantine") or {}
    if recovery.get("jobs_recovered") or quarantine.get("count"):
        print(
            f"recovery: {recovery.get('jobs_recovered', 0)} job(s) re-queued from "
            f"the journal at startup, {quarantine.get('count', 0)} quarantined"
        )
    for entry in quarantine.get("jobs", []) if args.detail else []:
        print(
            f"  quarantined {entry.get('job_id')}: {entry.get('error')} "
            f"(after {entry.get('attempts')} attempts)"
        )
    _render_stats(payload["stats"])
    if args.detail:
        for job in scheduler.get("job_list", []):
            error = f" error={job['error']}" if job.get("error") else ""
            print(f"  {job['job_id']}: {job['status']} (attempts {job['attempts']}){error}")
    if args.results is not None:
        for key, result in sorted(payload.get("results", {}).items()):
            races = result.get("race_count")
            label = f"{races} races" if races is not None else "no detector"
            print(f"  {key}: {label} ({result.get('events')} events)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch ``serve``/``submit``/``status`` when invoked as a module."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if not arguments or arguments[0] not in ("serve", "submit", "status"):
        print("usage: python -m repro.serve.cli {serve,submit,status} ...", file=sys.stderr)
        return 2
    entry = {"serve": main_serve, "submit": main_submit, "status": main_status}[arguments[0]]
    return entry(arguments[1:])


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
