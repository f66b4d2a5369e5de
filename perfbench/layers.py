"""The traced run: per-layer numbers for the workload, measured from outside.

Layers are the program's modules.  Each is timed around its public entry
points, from this file; nothing inside ``src/`` is instrumented:

``trace``     draining ``iter_trace_chunks(path)``, and the batch pulls of a
              ``Session.run`` walk;
``api``       ``Session.run`` wall time minus its decode and engine time;
``analysis``  ``spec.build()`` + ``begin/feed_batch/finish`` over pre-decoded
              batches, PO only and with ``+detect``, for every order x clock;
``clocks``    ``replay_clock_ops`` over recorded op logs, and the ``+work``
              counters (entries processed / updated);
``serve``     ``submit_text`` round trips, ``TraceCorpus.ingest``,
              ``execute_task`` in-process, and the queue/persist phases of
              a ``repro serve --obs-dir`` run read back through the
              ``repro obs timeline`` code.

The walk decomposition splits each traced ``Session.run`` into decode,
fan-out, PO and detection; the residual is the engine time inside the
session walk that the isolated engine walks do not explain (garbage
collection triggered by decoding, cache interference between specs).
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import calibration_ns, log, speed
from gate import Gate, check_walks, pinned, session_fingerprints
from inputs import (
    WALK_SPECS,
    access_trace,
    big_served_index,
    hb_star_trace,
    pairwise_trace,
    served_trace,
    write_workload,
)

ORDERS = ("hb", "shb", "maz")
CLOCKS = ("tc", "vc")
#: Table 2 of the paper: VC time / TC time, per order.
PAPER_TABLE2 = {
    ("maz", "po"): 2.02, ("shb", "po"): 2.66, ("hb", "po"): 2.97,
    ("maz", "detect"): 1.49, ("shb", "detect"): 1.80, ("hb", "detect"): 1.11,
}
SERVED_ROUND_FILES = 4

perf = time.perf_counter_ns


class _Meters:
    """Accumulators filled by the wrappers around decode and engine calls."""

    def __init__(self) -> None:
        self.decode_ns = 0
        self.engine_ns = 0


@contextlib.contextmanager
def instrumented(meters: _Meters):
    """Time the batch pulls and engine ``feed_batch`` calls of a ``Session.run``."""
    from repro.analysis.engine import PartialOrderAnalysis
    from repro.api import session as session_module

    original_iter = session_module.iter_event_batches
    original_feed = PartialOrderAnalysis.feed_batch

    def timed_iter(source, batch_size):
        iterator = iter(original_iter(source, batch_size))
        while True:
            started = perf()
            batch = next(iterator, None)
            meters.decode_ns += perf() - started
            if batch is None:
                return
            yield batch

    def timed_feed(self, events):
        started = perf()
        original_feed(self, events)
        meters.engine_ns += perf() - started

    session_module.iter_event_batches = timed_iter
    PartialOrderAnalysis.feed_batch = timed_feed
    try:
        yield meters
    finally:
        session_module.iter_event_batches = original_iter
        PartialOrderAnalysis.feed_batch = original_feed


def _isolated_walk(spec: str, batches: Sequence, threads) -> int:
    """``spec.build()`` + begin/feed_batch/finish over pre-decoded batches."""
    from repro.api import coerce_spec

    started = perf()
    analysis = coerce_spec(spec).build()
    analysis.begin(threads=threads)
    for batch in batches:
        analysis.feed_batch(batch)
    analysis.finish()
    return perf() - started


def walk_layers(files, tc_specs, vc_specs, budget_s: float) -> Dict[str, object]:
    """Decompose the workload's TC and VC walks file by file."""
    from repro.api import Session
    from repro.api.sources import as_event_source
    from repro.trace.io import iter_trace_chunks

    totals = {"drain_ns": 0, "drain_events": 0, "walk_ns": 0, "walk_events": 0,
              "decode_ns": 0, "engine_ns": 0, "po_ns": 0, "detect_ns": 0}
    rates: Dict[str, List[float]] = {"tc": [], "vc": []}
    latencies: List[float] = []
    iso: Dict[Tuple[str, str, str], List[int]] = {}
    iso_events = 0
    per_file_po: Dict[int, Dict[Tuple[str, str], int]] = {}
    walks: List[Dict[str, object]] = []
    # Warm-up: one untimed walk of each order x clock, so first-use costs
    # stay out of the first file's numbers.
    warm = list(iter_trace_chunks(files[0].path))
    for order in ORDERS:
        for clock in CLOCKS:
            _isolated_walk(f"{order}+{clock}+detect", warm, None)
    started = time.monotonic()
    for index, entry in enumerate(files):
        if index >= 2 and time.monotonic() - started > budget_s:
            break
        path = entry.path
        t0 = perf()
        drained = sum(len(batch) for batch in iter_trace_chunks(path))
        totals["drain_ns"] += perf() - t0
        totals["drain_events"] += drained
        batches = list(iter_trace_chunks(path))
        threads = as_event_source(path).threads()
        # One untimed walk first, so the first timed one does not alone pay
        # for promoting the freshly decoded events through the GC generations.
        _isolated_walk("hb+vc", batches, threads)
        # Every order x clock in isolation, PO and +detect: the analysis layer.
        per_file = {}
        for order in ORDERS:
            for clock in CLOCKS:
                po = _isolated_walk(f"{order}+{clock}", batches, threads)
                full = _isolated_walk(f"{order}+{clock}+detect", batches, threads)
                iso.setdefault((order, clock, "po"), []).append(po)
                iso.setdefault((order, clock, "detect"), []).append(full - po)
                per_file[(order, clock)] = (po, full)
        per_file_po[index] = {key: value[0] for key, value in per_file.items()}
        iso_events += entry.events
        walk = {"file": str(index), "events": entry.events}
        # traced.* rates are scaled to nominal machine speed like the
        # untraced ones, so that the two can be compared.
        factor = speed(calibration_ns())
        for clock, specs in (("tc", tc_specs), ("vc", vc_specs)):
            meters = _Meters()
            session = Session(specs)
            with instrumented(meters):
                t0 = perf()
                result = session.run(path)
                wall = perf() - t0
            walk[clock] = session_fingerprints(session, result)
            walk[f"{clock}_ns"] = wall
            rates[clock].append(result.num_events / (wall / 1e9 * factor))
            totals["walk_ns"] += wall
            totals["walk_events"] += result.num_events
            totals["decode_ns"] += meters.decode_ns
            totals["engine_ns"] += meters.engine_ns
            for spec in specs:
                po, full = per_file[(spec.split("+")[0], clock)]
                totals["po_ns"] += po
                if "+detect" in spec:
                    totals["detect_ns"] += full - po
        latencies.append((walk["tc_ns"] + walk["vc_ns"]) / 1e9 * factor)  # type: ignore[operator]
        walks.append(walk)
    return {"totals": totals, "rates": rates, "latencies": latencies, "iso": iso,
            "iso_events": iso_events, "per_file_po": per_file_po, "walks": walks}


def work_counts(path: str, gate: Gate, repeats: int = 2) -> Dict[str, Dict[str, int]]:
    """The paper's work counters from ``+work`` walks.

    The counters are performance figures, not outcomes, so they are not
    pinned: a change may lower them.  They must repeat exactly within a
    run, and TC and VC must update the same entries.
    """
    from repro.api import Session

    counts: Dict[str, Dict[str, int]] = {}
    for order in ORDERS:
        for clock in CLOCKS:
            key = f"{order}+{clock}+work"
            for _ in range(repeats):
                work = Session([key]).run(path).primary.work
                got = {"entries_processed": work.entries_processed,
                       "entries_updated": work.entries_updated}
                first = counts.setdefault(f"{order}.{clock}", got)
                gate.attempted += 1
                gate.check(got == first, f"{key}: work {got} != first walk {first}")
        gate.attempted += 1
        gate.check(
            counts[f"{order}.tc"]["entries_updated"] == counts[f"{order}.vc"]["entries_updated"],
            f"{order}: TC and VC update different entry counts",
        )
    return counts


def replay_layers(seed: int) -> Dict[str, Dict[str, float]]:
    """ns per clock op of TC and VC over the three recorded op logs."""
    from repro.bench.kernels import record_clock_ops, replay_clock_ops
    from repro.clocks.tree_clock import TreeClock
    from repro.clocks.vector_clock import VectorClock

    logs = {
        "hb-star": record_clock_ops(hb_star_trace(seed, 0, events=20_000), "hb"),
        "access-detect.shb": record_clock_ops(access_trace(seed, 0), "shb"),
        "pairwise-t16": record_clock_ops(pairwise_trace(seed), "hb"),
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, oplog in logs.items():
        out[name] = {}
        for clock, cls in (("tc", TreeClock), ("vc", VectorClock)):
            samples = []
            for _ in range(3):
                t0 = perf()
                replay_clock_ops(cls, oplog)
                samples.append((perf() - t0) / len(oplog))
            out[name][clock] = statistics.median(samples)
    return out


def serve_inprocess(seed: int, work: Path) -> Dict[str, float]:
    """Ingest and execute_task (sequential and parallel) on a >=100k-event trace."""
    from repro.serve.corpus import TraceCorpus
    from repro.serve.jobs import Scheduler
    from repro.serve.pool import WorkerTask, execute_task
    from repro.trace.io import save_trace

    trace = served_trace(seed, big_served_index())
    path = work / "big.std"
    save_trace(trace, path)
    corpus = TraceCorpus(work / "inproc-corpus")
    t0 = perf()
    entry, _ = corpus.ingest(str(path), name=trace.name)
    ingest_ns = perf() - t0
    default_parallel = inspect.signature(Scheduler.__init__).parameters["parallel_workers"].default
    out = {"ingest_ns_per_event": ingest_ns / entry.events, "events": entry.events}
    for label, parallel in (("seq", 1), ("par", default_parallel)):
        task = WorkerTask(task_id=f"bench-{label}", trace_path=str(corpus.trace_path(entry.digest)),
                          spec="hb+tc+detect", fmt=entry.trace_fmt, trace_name=trace.name,
                          parallel=parallel)
        t0 = perf()
        payload = execute_task(task)
        out[f"task_ns_per_event.{label}"] = (perf() - t0) / entry.events
        out[f"{label}_took_parallel"] = "parallel" in payload
    return out


def span_phases(obs_dir: Path, trace_ids: Sequence[str]) -> Dict[str, int]:
    """Queue and persist phase totals of the given traces (``repro obs timeline`` code)."""
    from repro.obs.merge import load_spans
    from repro.obs.report import build_timeline

    merged = load_spans([str(obs_dir)])
    totals = {"queue": 0, "persist": 0, "analyze": 0, "traces": 0}
    for trace_id in trace_ids:
        records = merged.for_trace(trace_id)
        if not records:
            continue
        phases = build_timeline(trace_id, records).as_dict()["phases_ns"]
        for phase in ("queue", "persist", "analyze"):
            totals[phase] += phases.get(phase, 0)  # type: ignore[union-attr]
        totals["traces"] += 1
    return totals


def served_round(workload: str, files, specs, seconds: float, work: Path, gate: Gate) -> Dict[str, float]:
    """A ``repro serve --obs-dir`` round: closed loop, then phase totals from spans."""
    from repro.trace.io import dumps_std, load_trace, infer_format

    from served import closed_loop, expected_results, start_server, stop_server, warm_up

    chosen = files if workload == "served-corpus" else files[:SERVED_ROUND_FILES]
    texts = [dumps_std(load_trace(entry.path, fmt=infer_format(entry.path))) for entry in chosen]
    expected = [expected_results(entry.path, specs) for entry in chosen]
    obs_dir = work / "obs"
    server = start_server(work / "traced-corpus", work / "traced-server.log", obs_dir=obs_dir)
    try:
        warm_up(server, texts[0], specs)
        loop = closed_loop(
            server, texts, [entry.events for entry in chosen], expected, specs,
            seconds if workload == "served-corpus" else 0,
            max_submissions=None if workload == "served-corpus" else len(chosen),
        )
    finally:
        stop_server(server)
    figures = loop.tally(gate)
    subs = loop.submissions
    phases = span_phases(obs_dir, [sub.trace_id for sub in subs])
    jobs = sum(sub.jobs for sub in subs)
    return {
        "tc_events_per_s": figures["tc_events_per_s"],
        "vc_events_per_s": figures["vc_events_per_s"],
        "jobs_per_s": figures["jobs_per_s"],
        "latency_p50_s": statistics.median(figures["latencies_s"]),
        "submit_ms": statistics.median(figures["submit_ms"]),
        "queue_wait_ms": phases["queue"] / 1e6 / max(jobs, 1),
        "persist_ms": phases["persist"] / 1e6 / max(jobs, 1),
        "analyze_ms": phases["analyze"] / 1e6 / max(jobs, 1),
        "span_traces": phases["traces"],
        "submissions": len(subs),
    }


def traced(workload: str, seed: int, seconds: float, work: Path,
           reference: Dict[str, object]) -> Tuple[Dict[str, Tuple[float, str]], Gate, Dict[str, object]]:
    files = write_workload(workload, seed, work)
    tc_specs, vc_specs = WALK_SPECS[workload]
    gate = Gate()
    expected = pinned(reference, workload, seed)
    metrics: Dict[str, Tuple[float, str]] = {}

    walk = walk_layers(files, tc_specs, vc_specs, budget_s=seconds)
    check_walks(gate, walk["walks"], (expected or {}).get("walks") if workload != "served-corpus" else None)  # type: ignore[arg-type]
    totals = walk["totals"]
    iso = walk["iso"]
    iso_events = walk["iso_events"]
    walk_ns, walk_events = totals["walk_ns"], totals["walk_events"]
    fanout_ns = walk_ns - totals["decode_ns"] - totals["engine_ns"]
    metrics["trace.decode_ns_per_event"] = (totals["drain_ns"] / totals["drain_events"], "ns")
    metrics["api.fanout_ns_per_event"] = (fanout_ns / walk_events, "ns")
    shares = {
        "trace": totals["decode_ns"] / walk_ns,
        "api": fanout_ns / walk_ns,
        "analysis.po": totals["po_ns"] / walk_ns,
        "analysis.detect": totals["detect_ns"] / walk_ns,
    }
    shares["residual"] = 1.0 - sum(shares.values())
    for name, share in shares.items():
        metrics[f"share.{name}"] = (100.0 * share, "%")
    for order in ORDERS:
        for clock in CLOCKS:
            metrics[f"analysis.po_ns_per_event.{order}.{clock}"] = (sum(iso[(order, clock, "po")]) / iso_events, "ns")
            metrics[f"analysis.detect_ns_per_event.{order}.{clock}"] = (sum(iso[(order, clock, "detect")]) / iso_events, "ns")
        # Table 2's cells: VC time / TC time, for the PO alone and for PO+Analysis.
        po = {clock: sum(iso[(order, clock, "po")]) for clock in CLOCKS}
        full = {clock: po[clock] + sum(iso[(order, clock, "detect")]) for clock in CLOCKS}
        metrics[f"analysis.tc_vc_ratio.{order}.po"] = (po["vc"] / po["tc"], "x")
        metrics[f"analysis.tc_vc_ratio.{order}.detect"] = (full["vc"] / full["tc"], "x")

    counts = work_counts(files[0].path, gate)
    for order in ORDERS:
        metrics[f"clocks.entries_updated.{order}"] = (counts[f"{order}.tc"]["entries_updated"], "count")
        for clock in CLOCKS:
            processed = counts[f"{order}.{clock}"]["entries_processed"]
            metrics[f"clocks.entries_processed.{order}.{clock}"] = (processed, "count")
            po_ns = walk["per_file_po"][0][(order, clock)]
            metrics[f"clocks.ns_per_entry.{order}.{clock}"] = (po_ns / max(processed, 1), "ns")
    for name, per_clock in replay_layers(seed).items():
        for clock, ns in per_clock.items():
            metrics[f"clocks.replay_ns_per_op.{name}.{clock}"] = (ns, "ns")

    inproc = serve_inprocess(seed, work)
    metrics["serve.ingest_ns_per_event"] = (inproc["ingest_ns_per_event"], "ns")
    metrics["serve.task_ns_per_event.seq"] = (inproc["task_ns_per_event.seq"], "ns")
    metrics["serve.task_ns_per_event.par"] = (inproc["task_ns_per_event.par"], "ns")
    round_ = served_round(workload, files, tc_specs + vc_specs, seconds, work, gate)
    for name in ("submit_ms", "queue_wait_ms", "persist_ms"):
        metrics[f"serve.{name}"] = (round_[name], "ms")

    # The traced run's own end-to-end numbers, defined as in the untraced
    # run of the same workload; the difference is the tracing overhead.
    if workload == "served-corpus":
        for name in ("tc_events_per_s", "vc_events_per_s", "jobs_per_s"):
            metrics[f"traced.{name}"] = (round_[name], "1/s")
        metrics["traced.latency_p50_s"] = (round_["latency_p50_s"], "s")
    else:
        latencies = walk["latencies"]
        metrics["traced.tc_events_per_s"] = (statistics.median(walk["rates"]["tc"]), "1/s")
        metrics["traced.vc_events_per_s"] = (statistics.median(walk["rates"]["vc"]), "1/s")
        metrics["traced.jobs_per_s"] = (len(latencies) * (len(tc_specs) + len(vc_specs)) / sum(latencies), "1/s")
        metrics["traced.latency_p50_s"] = (statistics.median(latencies), "s")

    _report(workload, shares, totals, metrics, counts)
    details = {
        "walked_files": len(walk["walks"]),
        "shares_pct": {name: round(100 * share, 2) for name, share in shares.items()},
        "decode_drain_vs_walk_ns": [totals["drain_ns"], totals["decode_ns"]],
        "serve_inprocess": inproc,
        "served_round": round_,
        "work_counts": counts,
        "paper_table2": {f"{o}.{p}": v for (o, p), v in PAPER_TABLE2.items()},
    }
    return metrics, gate, details


def _report(workload, shares, totals, metrics, counts) -> None:
    log(f"[{workload}] traced walk: {totals['walk_events']} events in {totals['walk_ns'] / 1e9:.3f} s")
    for name, share in shares.items():
        log(f"  share {name:<16} {100 * share:7.2f} %")
    log("  Table 2 (VC time / TC time)   measured   paper")
    for part in ("po", "detect"):
        for order in ("maz", "shb", "hb"):
            value = metrics[f"analysis.tc_vc_ratio.{order}.{part}"][0]
            log(f"    {order.upper():>3} {('PO' if part == 'po' else 'PO+Analysis'):<12} {value:10.2f} {PAPER_TABLE2[(order, part)]:7.2f}")
    log("  work counters (entries processed / updated) next to ns per entry")
    for order in ORDERS:
        for clock in CLOCKS:
            c = counts[f"{order}.{clock}"]
            log(f"    {order}.{clock}: processed {c['entries_processed']:>10} updated {c['entries_updated']:>9}"
                f"  {metrics[f'clocks.ns_per_entry.{order}.{clock}'][0]:8.1f} ns/entry")
