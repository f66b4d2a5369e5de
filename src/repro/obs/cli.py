"""``repro obs`` — offline reporting over exported span files.

Two subcommands close the distributed-tracing loop:

* ``repro obs timeline PATHS... [--trace ID]`` merges the span files
  (or obs directories) and prints one trace's reconstructed lifecycle —
  an ASCII gantt with per-phase totals (submit, queue, dispatch,
  analyze, persist) and the critical path, or the same as JSON with
  ``--json``.
* ``repro obs export PATHS... --chrome-trace OUT`` writes a
  Chrome/Perfetto-loadable trace-event file (open it at
  ``https://ui.perfetto.dev`` or ``chrome://tracing``).

Both accept any mix of files and directories; directories are walked
recursively so pointing at a server's job-scoped obs directory picks up
the per-worker ``spans-<pid>.jsonl`` files automatically.

Examples
--------
::

    repro obs timeline client-spans.jsonl corpus/obs/
    repro obs timeline corpus/obs/ --trace 4bf92f35... --json
    repro obs export client-spans.jsonl corpus/obs/ --chrome-trace job.trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .merge import load_spans
from .report import build_timeline, render_gantt, to_chrome_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Reconstruct distributed job timelines from exported span files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    timeline = sub.add_parser(
        "timeline", help="merge span files and print one trace's gantt + phases"
    )
    timeline.add_argument(
        "paths", nargs="+", help="span files and/or obs directories to merge"
    )
    timeline.add_argument(
        "--trace",
        metavar="TRACE_ID",
        default=None,
        help="trace id to reconstruct (default: the trace with the most spans)",
    )
    timeline.add_argument(
        "--json", action="store_true", help="emit the timeline as JSON instead of ASCII"
    )
    timeline.add_argument(
        "--width", type=int, default=72, help="gantt bar width in columns (default 72)"
    )

    export = sub.add_parser("export", help="export merged spans to other formats")
    export.add_argument(
        "paths", nargs="+", help="span files and/or obs directories to merge"
    )
    export.add_argument(
        "--chrome-trace",
        metavar="OUT",
        required=True,
        help="write a Chrome/Perfetto trace-event JSON file to OUT",
    )
    export.add_argument(
        "--trace",
        metavar="TRACE_ID",
        default=None,
        help="export only this trace id (default: every span found)",
    )
    return parser


def _pick_trace(merged, requested: Optional[str]) -> Optional[str]:
    if requested is not None:
        return requested
    ids = merged.trace_ids
    return ids[0] if ids else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)

    try:
        merged = load_spans(args.paths, trace_id=getattr(args, "trace", None))
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if merged.corrupt_lines:
        print(
            f"warning: skipped {merged.corrupt_lines} corrupt line(s) while merging",
            file=sys.stderr,
        )

    if args.command == "timeline":
        trace_id = _pick_trace(merged, args.trace)
        if trace_id is None:
            print("error: no spans with a trace_id found", file=sys.stderr)
            return 1
        records = merged.for_trace(trace_id)
        if not records:
            print(f"error: no spans for trace {trace_id}", file=sys.stderr)
            return 1
        timeline = build_timeline(trace_id, records)
        if args.json:
            payload = timeline.as_dict()
            payload["corrupt_lines"] = merged.corrupt_lines
            payload["files"] = [str(p) for p in merged.files]
            print(json.dumps(payload, indent=2))
        else:
            print(render_gantt(timeline, width=max(args.width, 8)))
        return 0

    if args.command == "export":
        records = merged.records
        if args.trace is not None:
            records = merged.for_trace(args.trace)
        if not records:
            print("error: no spans to export", file=sys.stderr)
            return 1
        payload = to_chrome_trace(records)
        with open(args.chrome_trace, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        print(
            f"wrote {len(payload['traceEvents'])} events to {args.chrome_trace}",
            file=sys.stderr,
        )
        return 0

    return 2  # pragma: no cover - argparse enforces the subcommand set


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
