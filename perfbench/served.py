"""The served path: a ``repro serve`` subprocess driven by a closed loop of clients.

Each client submits one STD trace with ``ServeClient.submit_text``, polls
its jobs every 5 ms until all are terminal, then submits the next.  The
time from the start of the submit to the poll that first sees a job
terminal is that job's latency; every rate and latency of the served
workload is computed from these times, taken by the benchmark, never from
the timings the server writes into its result payloads.  Every
submission is made distinct by prefixing the trace's lock and variable
names with the submission number, so each one is ingested and analysed
afresh (nothing is served from the idempotent results store) while its
expected result is still known: race counts, race pairs and racy
variables of the un-prefixed trace, computed in-process with ``Session``.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import BenchError, ROOT, child_env, log, now_ns

WORKERS = 2
CLIENTS = 2
POLL_SECONDS = 0.005
WAIT_SECONDS = 120
#: Job states after which a job never runs again; ``unknown`` is a job the
#: server no longer lists, as in ``ServeClient.wait_for_jobs``.
TERMINAL = ("done", "failed", "quarantined", "unknown")


@dataclass
class ServerHandle:
    proc: subprocess.Popen
    host: str
    port: int
    setup_s: float
    log_path: Path

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


def start_server(corpus: Path, log_path: Path, obs_dir: Optional[Path] = None) -> ServerHandle:
    """Launch ``repro serve``; returns once a ``ping`` succeeds.

    ``setup_s`` is process launch to the first successful ping.
    """
    from repro.serve.client import ServeClient, ServeClientError

    args = [
        sys.executable, "-m", "repro.cli", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--corpus", str(corpus), "--workers", str(WORKERS),
    ]
    if obs_dir is not None:
        args += ["--obs-dir", str(obs_dir)]
    handle = open(log_path, "w", encoding="utf-8")
    launched = now_ns()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), stdout=handle, stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL,
    )
    handle.close()
    deadline = time.monotonic() + 60
    address = None
    while address is None:
        if proc.poll() is not None or time.monotonic() > deadline:
            stop_process(proc)
            raise BenchError(f"server did not start: {log_path.read_text()[-2000:]}")
        first = log_path.read_text().split("\n", 1)
        if first[0].startswith("serving on ") and len(first) > 1:
            address = first[0].split()[2]
        else:
            time.sleep(0.002)
    host, port = address.rsplit(":", 1)
    while True:
        try:
            with ServeClient(host, int(port), timeout=10, retries=0) as client:
                client.ping()
            break
        except (OSError, ServeClientError):
            if time.monotonic() > deadline:
                stop_process(proc)
                raise BenchError("server never answered ping")
            time.sleep(0.002)
    return ServerHandle(proc, host, int(port), (now_ns() - launched) / 1e9, log_path)


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def stop_server(server: ServerHandle) -> None:
    """Ask for a clean shutdown; fall back to signals. Waits for exit."""
    from repro.serve.client import ServeClient, ServeClientError

    try:
        with ServeClient(server.host, server.port, timeout=10, retries=0) as client:
            client.shutdown()
        server.proc.wait(timeout=30)
    except (OSError, ServeClientError, subprocess.TimeoutExpired):
        pass
    stop_process(server.proc)


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError as error:
        raise BenchError(f"cannot read the peak RSS of pid {pid}: {error}") from error
    raise BenchError(f"no VmHWM line for pid {pid}")


def peak_rss_kb(server: ServerHandle) -> Dict[str, int]:
    """Peak RSS (``VmHWM``) of the server and of each live worker, in KiB.

    The worker pids come from the ``stats`` op, so call this before the
    server stops.
    """
    from repro.serve.client import ServeClient

    with ServeClient(server.host, server.port, timeout=10) as client:
        stats = client.stats(metrics=False)
    peaks = {"server": _peak_rss_kb(int(stats["pid"]))}  # type: ignore[arg-type]
    for row in stats["workers"]:  # type: ignore[union-attr]
        if row.get("alive") and row.get("pid"):
            peaks[f"worker-{row['worker_id']}"] = _peak_rss_kb(int(row["pid"]))
    return peaks


# -- expected results ------------------------------------------------------------------


def expected_results(path: str, specs: Sequence[str]) -> Dict[str, Dict[str, object]]:
    """The in-process ``Session`` result of one trace file per spec."""
    from repro.api import Session

    expected = {}
    for spec in specs:
        result = Session([spec]).run(path)
        analysis = result.primary
        row: Dict[str, object] = {"events": result.num_events}
        if analysis.detection is not None:
            row["race_count"] = analysis.detection.race_count
            row["races"] = sorted(race.pair() for race in analysis.detection.races)
            row["racy_variables"] = sorted(str(v) for v in analysis.detection.racy_variables)
        expected[analysis_key(spec)] = row
    return expected


def analysis_key(spec: str) -> str:
    from repro.api import coerce_spec

    return coerce_spec(spec).key


def relabel(text: str, prefix: str) -> str:
    """Prefix every lock and variable name (``l...``/``x...`` targets)."""
    return text.replace("(x", f"({prefix}x").replace("(l", f"({prefix}l")


def _unprefix(values: Sequence[str], prefix: str) -> List[str]:
    return sorted(value[len(prefix):] if value.startswith(prefix) else value for value in values)


def served_matches(payload: Dict[str, object], want: Dict[str, object], prefix: str) -> bool:
    if payload.get("events") != want["events"]:
        return False
    if "race_count" in want:
        if payload.get("race_count") != want["race_count"]:
            return False
        if _unprefix(payload.get("races", []), prefix) != want["races"]:  # type: ignore[arg-type]
            return False
        if _unprefix(payload.get("racy_variables", []), prefix) != want["racy_variables"]:  # type: ignore[arg-type]
            return False
    return True


# -- the closed loop -------------------------------------------------------------------


@dataclass
class Submission:
    number: int
    base: int
    events: int
    submit_ns: int = 0
    latency_ns: int = 0
    done_ns: int = 0
    trace_id: str = ""
    jobs: int = 0
    failed: int = 0
    parallel: int = 0
    #: (analysis key, events, latency ns) of every job served correctly.
    served: List[Tuple[str, int, int]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


@dataclass
class LoopResult:
    submissions: List[Submission]
    started_ns: int
    ended_ns: int

    def tally(self, gate) -> Dict[str, object]:
        """Count every job into ``gate``; return the loop's end-to-end figures.

        ``<clock>_events_per_s`` is the events of the clock's correctly
        served jobs over the sum of those jobs' latencies.
        """
        events = {"tc": 0, "vc": 0}
        waited = {"tc": 0, "vc": 0}
        for sub in self.submissions:
            gate.attempted += sub.jobs
            gate.failed += sub.failed
            gate.problems.extend(sub.problems[:5])
            for key, count, latency_ns in sub.served:
                clock = "tc" if "+tc" in key else "vc"
                events[clock] += count
                waited[clock] += latency_ns
        if not (waited["tc"] and waited["vc"]):
            raise BenchError("no TC or no VC job was served correctly")
        served = sum(len(sub.served) for sub in self.submissions)
        return {
            "tc_events_per_s": events["tc"] / (waited["tc"] / 1e9),
            "vc_events_per_s": events["vc"] / (waited["vc"] / 1e9),
            "jobs_per_s": served / ((self.ended_ns - self.started_ns) / 1e9),
            "latencies_s": [sub.latency_ns / 1e9 for sub in self.submissions],
            "submit_ms": [sub.submit_ns / 1e6 for sub in self.submissions],
        }


def wait_terminal(client, job_ids: Sequence[str],
                  started_ns: int) -> Tuple[Dict[str, Dict[str, object]], Dict[str, int]]:
    """Poll every POLL_SECONDS until every job is terminal.

    Returns the final job rows and, per job, the time from ``started_ns``
    to the poll that first saw it terminal (``ServeClient.wait_for_jobs``
    returns only once all are).
    """
    from repro.serve.client import ServeClientError

    rows: Dict[str, Dict[str, object]] = {}
    latency: Dict[str, int] = {}
    deadline = time.monotonic() + WAIT_SECONDS
    while True:
        listed = client.status(jobs=list(job_ids))["scheduler"]["job_list"]
        seen = now_ns()
        rows.update((str(row["job_id"]), row) for row in listed)
        for job_id in job_ids:
            row = rows.setdefault(job_id, {"job_id": job_id, "status": "unknown"})
            if row.get("status") in TERMINAL:
                latency.setdefault(job_id, seen - started_ns)
        if len(latency) == len(job_ids):
            return rows, latency
        if time.monotonic() > deadline:
            raise ServeClientError(f"jobs still unfinished after {WAIT_SECONDS}s")
        time.sleep(POLL_SECONDS)


def closed_loop(
    server: ServerHandle,
    texts: Sequence[str],
    events: Sequence[int],
    expected: Sequence[Dict[str, Dict[str, object]]],
    specs: Sequence[str],
    seconds: float,
    max_submissions: Optional[int] = None,
    min_submissions: int = 0,
) -> LoopResult:
    """Run CLIENTS closed-loop clients.

    Clients stop submitting after ``seconds`` once ``min_submissions``
    have been made, or after exactly ``max_submissions`` when given.
    """
    from repro.serve.client import ServeClient, ServeClientError

    counter = itertools.count()
    lock = threading.Lock()
    done: List[Submission] = []
    errors: List[BaseException] = []
    started = now_ns()
    deadline = started + int(seconds * 1e9)

    def next_number() -> Optional[int]:
        with lock:
            number = next(counter)
        if max_submissions is not None and number >= max_submissions:
            return None
        if max_submissions is None and number >= min_submissions and now_ns() >= deadline:
            return None
        return number

    def client_main() -> None:
        try:
            with ServeClient(server.host, server.port, timeout=120) as client:
                while True:
                    number = next_number()
                    if number is None:
                        return
                    base = number % len(texts)
                    prefix = f"s{number}"
                    text = relabel(texts[base], prefix)
                    sub = Submission(number=number, base=base, events=events[base])
                    t0 = now_ns()
                    response = client.submit_text(text, list(specs), name=f"{prefix}-{base}")
                    sub.submit_ns = now_ns() - t0
                    job_ids = [str(job) for job in response["jobs"]]  # type: ignore[union-attr]
                    rows, job_latency = wait_terminal(client, job_ids, t0)
                    sub.latency_ns = max(job_latency.values(), default=now_ns() - t0)
                    sub.done_ns = t0 + sub.latency_ns
                    sub.trace_id = str(response.get("trace_id", ""))
                    sub.jobs = len(list(specs))
                    if response.get("cached") or len(job_ids) != sub.jobs:
                        sub.problems.append(f"#{number}: not analysed afresh: {response.get('cached')}")
                    results = client.results(str(response["digest"]))
                    for spec in specs:
                        key = analysis_key(spec)
                        payload = results.get(key)
                        job_id = next((j for j in job_ids if j.endswith(f":{key}")), None)
                        status = rows[job_id].get("status") if job_id else None
                        if payload is None or status != "done":
                            sub.failed += 1
                            sub.problems.append(f"#{number} {key}: status {status}")
                            continue
                        if "parallel" in payload:
                            sub.parallel += 1
                        if not served_matches(payload, expected[base][key], prefix):
                            sub.failed += 1
                            sub.problems.append(f"#{number} {key}: served result != in-process result")
                            continue
                        sub.served.append((key, int(payload["events"]), job_latency[job_id]))  # type: ignore[arg-type]
                    with lock:
                        done.append(sub)
        except (OSError, ServeClientError) as error:
            errors.append(error)

    clients = [threading.Thread(target=client_main, daemon=True) for _ in range(CLIENTS)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=seconds + 300)
    ended = max((sub.done_ns for sub in done), default=now_ns())
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    if any(thread.is_alive() for thread in clients):
        raise BenchError("a client did not finish")
    done.sort(key=lambda sub: sub.number)
    return LoopResult(done, started, ended)


def load_texts(paths: Sequence[str]) -> List[str]:
    return [Path(path).read_text() for path in paths]


def warm_up(server: ServerHandle, text: str, specs: Sequence[str]) -> None:
    """One untimed submission, so worker imports happen before timing."""
    from repro.serve.client import ServeClient

    with ServeClient(server.host, server.port, timeout=120) as client:
        response = client.submit_text(relabel(text, "warm"), list(specs), name="warm-up")
        wait_terminal(client, [str(job) for job in response["jobs"]], now_ns())  # type: ignore[union-attr]
    log(f"warm-up submission done on {server.address}")
