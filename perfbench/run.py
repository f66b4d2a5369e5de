"""The repository benchmark.

    python3 perfbench/run.py --workload {hb-star,access-detect,served-corpus}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Inputs are generated from the
seed, the program is measured for ``--seconds``, every analysis is
checked (see ``gate.py``), and the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``layers.py`` with ``--trace 1``.  The line before it holds provenance
(nproc, CPU model, Python, git commit, seed) and the details behind the
metrics (quartiles, tail percentile and its sample count, ...).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Tuple

from common import (
    BENCH_DIR,
    BenchError,
    calibration_ns,
    log,
    make_workdir,
    now_ns,
    provenance,
    remove_workdir,
    require_program,
    run_json_child,
    speed,
    summary,
    tail,
)

WORKLOADS = ("hb-star", "access-detect", "served-corpus")
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
SERVED_SETUP_PROBES = 4
#: served-corpus keeps submitting past --seconds until it has this many
#: samples (20 rounds of the eight-trace pool): enough for ten beyond its
#: p90 tail, and enough run time to average over the host's speed swings.
SERVED_MIN_SUBMISSIONS = 160

Metrics = Dict[str, Tuple[float, str]]


def _latency_metrics(metrics: Metrics, details: Dict[str, object], workload: str, latencies) -> None:
    value, pct, count = tail(latencies, workload)
    metrics["latency_p50_s"] = (statistics.median(latencies), "s")
    metrics["latency_tail_s"] = (value, "s")
    details["latency_tail"] = {"percentile": pct, "samples": count}
    details["latency_s"] = summary(latencies)


def timed_analysis(workload: str, seed: int, seconds: float, work: Path, reference):
    from gate import Gate, check_oracle_prefix, check_walks, pinned
    from inputs import WALK_SPECS, write_workload
    from repro.trace.io import infer_format, load_trace

    files = write_workload(workload, seed, work)
    tc_specs, vc_specs = WALK_SPECS[workload]
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(
        {"files": [asdict(f) for f in files], "tc_specs": tc_specs, "vc_specs": vc_specs}
    ))
    walker = str(BENCH_DIR / "walker.py")
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = speed(calibration_ns())
        launched = now_ns()
        probe = run_json_child([walker, "setup", str(manifest)], timeout=120)
        setup_raw.append((int(probe["first_batch_ns"]) - launched) / 1e9)
        setup.append(setup_raw[-1] * factor)
    loop = run_json_child([walker, "loop", str(manifest), str(seconds)], timeout=seconds + 120)
    iterations = loop["iterations"]

    gate = Gate()
    expected = pinned(reference, workload, seed)
    check_walks(gate, iterations, expected["walks"] if expected else None)
    check_oracle_prefix(gate, load_trace(files[0].path, fmt=infer_format(files[0].path)))

    # Each walk pair is scaled by the calibration taken right after it.
    factors = [speed(it["calibration_ns"]) for it in iterations]
    tc_s = [it["tc_ns"] / 1e9 * f for it, f in zip(iterations, factors)]
    vc_s = [it["vc_ns"] / 1e9 * f for it, f in zip(iterations, factors)]
    tc_rates = [it["events"] / t for it, t in zip(iterations, tc_s)]
    vc_rates = [it["events"] / t for it, t in zip(iterations, vc_s)]
    latencies = [tc + vc for tc, vc in zip(tc_s, vc_s)]
    jobs = len(iterations) * (len(tc_specs) + len(vc_specs))
    metrics: Metrics = {
        "tc_events_per_s": (statistics.median(tc_rates), "1/s"),
        "vc_events_per_s": (statistics.median(vc_rates), "1/s"),
        "jobs_per_s": (jobs / sum(latencies), "1/s"),
    }
    details: Dict[str, object] = {"pinned_reference": expected is not None}
    _latency_metrics(metrics, details, workload, latencies)
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (loop["peak_rss_kb"] / 1024.0, "MB")
    raw_latencies = [(it["tc_ns"] + it["vc_ns"]) / 1e9 for it in iterations]
    details.update(
        tc_events_per_s=summary(tc_rates), vc_events_per_s=summary(vc_rates),
        speed=summary(factors), setup_s=setup, walks=len(iterations), jobs=jobs,
        raw={"tc_events_per_s": statistics.median(it["events"] / (it["tc_ns"] / 1e9) for it in iterations),
             "jobs_per_s": jobs / (loop["loop_ns"] / 1e9),
             "latency_p50_s": statistics.median(raw_latencies),
             "setup_s": statistics.median(setup_raw)},
    )
    return metrics, gate, details


def timed_served(seed: int, seconds: float, work: Path, reference):
    from gate import Gate, pinned
    from inputs import WALK_SPECS, write_workload
    from served import (
        closed_loop, expected_results, load_texts, peak_rss_kb, start_server, stop_server, warm_up,
    )

    files = write_workload("served-corpus", seed, work)
    tc_specs, vc_specs = WALK_SPECS["served-corpus"]
    specs = tc_specs + vc_specs
    expected = [expected_results(entry.path, specs) for entry in files]
    texts = load_texts([entry.path for entry in files])

    gate = Gate()
    pinned_pool = pinned(reference, "served-corpus", seed)
    if pinned_pool is not None:
        for index, want in enumerate(expected):
            for key, row in want.items():
                gate.attempted += 1
                pin = pinned_pool["pool"].get(str(index), {}).get(key)
                got = {"events": row["events"], "race_count": row.get("race_count")}
                gate.check(got == pin, f"served pool {index} {key}: in-process {got} != pinned {pin}")

    # Served timings stay raw wall-clock: unlike a single-threaded walk,
    # the served loop keeps both cores busy with the server and its
    # workers, and the calibration kernel, timed before, during or after
    # the loop, did not track its speed (scaling widened the spread).
    setup = []
    for probe in range(SERVED_SETUP_PROBES + 1):
        server = start_server(work / f"corpus-{probe}", work / f"server-{probe}.log")
        setup.append(server.setup_s)
        if probe < SERVED_SETUP_PROBES:
            stop_server(server)
    try:
        warm_up(server, texts[0], specs)
        loop = closed_loop(server, texts, [entry.events for entry in files], expected, specs,
                           seconds, min_submissions=SERVED_MIN_SUBMISSIONS)
        peaks = peak_rss_kb(server)
    finally:
        stop_server(server)

    figures = loop.tally(gate)
    subs = loop.submissions
    metrics: Metrics = {name: (figures[name], "1/s")
                        for name in ("tc_events_per_s", "vc_events_per_s", "jobs_per_s")}
    details: Dict[str, object] = {"pinned_reference": pinned_pool is not None}
    _latency_metrics(metrics, details, "served-corpus", figures["latencies_s"])
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (max(peaks.values()) / 1024.0, "MB")
    big = [sub for sub in subs if sub.events >= 100_000]
    details.update(
        setup_s=setup, submissions=len(subs), peak_rss_kb=peaks,
        submit_ms=summary(figures["submit_ms"]),
        large_traces={"submitted": len(big), "jobs": sum(sub.jobs for sub in big),
                      "took_parallel": sum(sub.parallel for sub in big)},
    )
    return metrics, gate, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as error:
        log(f"error: {error}")
        return 2
    from gate import load_reference

    reference = load_reference()
    work = make_workdir(args.workload)
    try:
        if args.trace:
            from layers import traced

            metrics, gate, details = traced(args.workload, args.seed, args.seconds, work, reference)
        elif args.workload == "served-corpus":
            metrics, gate, details = timed_served(args.seed, args.seconds, work, reference)
        else:
            metrics, gate, details = timed_analysis(args.workload, args.seed, args.seconds, work, reference)
    except BenchError as error:
        log(f"error: {error}")
        return 1
    finally:
        remove_workdir(work)
    for problem in gate.problems:
        log(f"GATE FAILURE: {problem}")
    details["error_rate"] = gate.failed / max(gate.attempted, 1)
    print(json.dumps({"provenance": provenance(args.workload, args.seed), "details": details}))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
