"""The analysing process of the ``hb-star`` and ``access-detect`` workloads.

Run as a child of ``run.py`` so that its peak RSS covers the analysis
alone, not input generation.  Two modes:

``setup MANIFEST``
    import the program, open the first file, build the TC session and
    feed its first batch, then print the monotonic clock and exit (the
    parent measures process launch to first batch fed);
``loop MANIFEST SECONDS``
    walk the files round-robin, each as a TC ``Session.run(path)`` then
    a VC one, until SECONDS have passed (and at least MIN_WALKS pairs); print per-walk timings,
    fingerprints and a machine-speed calibration after each pair, and the
    peak RSS, as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time

MIN_WALKS = 50


def _setup(manifest: dict) -> None:
    from repro.api import Session
    from repro.api.sources import DEFAULT_BATCH_SIZE, as_event_source, iter_event_batches

    session = Session(manifest["tc_specs"])
    source = as_event_source(manifest["files"][0]["path"])
    session.begin(threads=source.threads(), name=source.name)
    session.feed_batch(next(iter(iter_event_batches(source, DEFAULT_BATCH_SIZE))))
    print(json.dumps({"first_batch_ns": time.monotonic_ns()}), flush=True)


def _loop(manifest: dict, seconds: float) -> None:
    from repro.api import Session

    from common import calibration_ns
    from gate import session_fingerprints

    files = manifest["files"]
    tc_specs, vc_specs = manifest["tc_specs"], manifest["vc_specs"]
    # Warm-up: one untimed TC and VC walk, so lazy imports and first-touch
    # page faults stay out of the timed walks.
    for specs in (tc_specs, vc_specs):
        Session(specs).run(files[0]["path"])
    perf = time.perf_counter_ns
    iterations = []
    started = perf()
    deadline = started + int(seconds * 1e9)
    index = 0
    # At least MIN_WALKS pairs, so the p80 tail always has ten beyond it.
    while perf() < deadline or len(iterations) < MIN_WALKS:
        entry = files[index % len(files)]
        walk = {"file": str(index % len(files)), "events": entry["events"]}
        for clock, specs in (("tc", tc_specs), ("vc", vc_specs)):
            session = Session(specs)
            t0 = perf()
            result = session.run(entry["path"])
            walk[f"{clock}_ns"] = perf() - t0
            walk[clock] = session_fingerprints(session, result)
        walk["calibration_ns"] = calibration_ns()
        iterations.append(walk)
        index += 1
    loop_ns = perf() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"iterations": iterations, "loop_ns": loop_ns, "peak_rss_kb": peak_kb}))


def main(argv: list) -> int:
    mode, manifest_path = argv[0], argv[1]
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if mode == "setup":
        _setup(manifest)
    elif mode == "loop":
        _loop(manifest, float(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
