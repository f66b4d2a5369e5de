"""End-to-end distributed tracing: client → server → worker → timeline.

The acceptance scenario of the distributed-tracing work: a served job
with spans enabled leaves one merged trace linking the client submit,
the server op, the queue wait and the worker's session — all under a
single ``trace_id`` — and ``repro obs timeline`` / ``repro obs export``
reconstruct it.
"""

import json
import threading

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.merge import load_spans
from repro.obs.report import build_timeline
from repro.obs.tracing import configure_tracing, shutdown_tracing
from repro.serve import ServeClient, TraceServer
from repro.trace.builder import TraceBuilder

# Spawns worker processes and subprocesses: runs in the `-m slow` CI lane.
pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def clean_tracing_state():
    shutdown_tracing()
    yield
    shutdown_tracing()


@pytest.fixture
def racy_trace():
    builder = TraceBuilder(name="racy")
    for _ in range(50):
        builder.write(1, "x").acquire(1, "l").write(1, "y").release(1, "l")
        builder.write(2, "x").acquire(2, "l").read(2, "y").release(2, "l")
    return builder.build()


def serve_one_job(tmp_path, racy_trace):
    """Run one traced submit through a real server; returns (obs paths, trace_id)."""
    obs_dir = tmp_path / "obs"
    client_spans = tmp_path / "client-spans.jsonl"
    configure_tracing(client_spans)
    server = TraceServer(
        ("127.0.0.1", 0), tmp_path / "corpus", workers=1, obs_dir=obs_dir
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.address
    try:
        with ServeClient(host, port) as client:
            response = client.submit_trace(racy_trace, ["shb+tc+detect"])
            trace_id = response["trace_id"]
            status = client.wait_idle(timeout=120)
            assert status["scheduler"]["jobs"]["done"] == 1
            assert status["scheduler"]["jobs"]["failed"] == 0
    finally:
        server.close()
    shutdown_tracing()
    return [client_spans, obs_dir], trace_id


class TestDistributedTrace:
    def test_one_trace_links_client_server_and_worker(self, tmp_path, racy_trace):
        paths, trace_id = serve_one_job(tmp_path, racy_trace)
        merged = load_spans(paths)
        assert merged.corrupt_lines == 0
        # The job's trace is the dominant one in the merged set.
        assert trace_id in merged.trace_ids
        records = merged.for_trace(trace_id)
        names = {r["name"] for r in records}
        assert {"client.submit", "serve.op.submit", "job.queue_wait",
                "worker.task", "session.run", "job.persist"} <= names
        # More than one process contributed spans to the same trace.
        assert len({r["pid"] for r in records}) >= 2
        # Parenting: client.submit is the lone root; every other span
        # hangs off a recorded parent (the never-orphaned invariant).
        sids = {r["sid"] for r in records}
        roots = [r for r in records if r.get("psid") not in sids]
        assert [r["name"] for r in roots] == ["client.submit"]
        worker = next(r for r in records if r["name"] == "worker.task")
        op = next(r for r in records if r["name"] == "serve.op.submit")
        assert worker["psid"] == op["sid"]
        session = next(r for r in records if r["name"] == "session.run")
        assert session["psid"] == worker["sid"]
        queue_wait = next(r for r in records if r["name"] == "job.queue_wait")
        assert queue_wait["psid"] == op["sid"]

    def test_timeline_reconstructs_lifecycle_phases(self, tmp_path, racy_trace):
        paths, trace_id = serve_one_job(tmp_path, racy_trace)
        merged = load_spans(paths)
        timeline = build_timeline(trace_id, merged.for_trace(trace_id))
        phases = {p for p, ns in timeline.phase_totals_ns.items() if ns > 0}
        assert {"submit", "queue", "analyze", "persist"} <= phases
        assert timeline.wall_ns > 0
        chain = [node.name for node in timeline.critical_path]
        assert chain[0] == "client.submit"

    def test_obs_cli_timeline_and_chrome_export(self, tmp_path, racy_trace, capsys):
        paths, trace_id = serve_one_job(tmp_path, racy_trace)
        argv = [str(p) for p in paths]

        assert obs_main(["timeline", *argv, "--trace", trace_id]) == 0
        out = capsys.readouterr().out
        for name in ("client.submit", "worker.task", "phases:", "critical path"):
            assert name in out

        assert obs_main(["timeline", *argv, "--trace", trace_id, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == trace_id
        lively = {p for p, ns in payload["phases_ns"].items() if ns > 0}
        assert {"submit", "queue", "analyze", "persist"} <= lively

        chrome = tmp_path / "job.trace.json"
        assert obs_main(
            ["export", *argv, "--trace", trace_id, "--chrome-trace", str(chrome)]
        ) == 0
        exported = json.loads(chrome.read_text())
        assert exported["traceEvents"]
        assert all(e["ph"] == "X" for e in exported["traceEvents"])
        cats = {e["cat"] for e in exported["traceEvents"]}
        assert "submit" in cats and "analyze" in cats

    def test_queue_wait_metrics_surface_in_stats(self, tmp_path, racy_trace):
        obs_dir = tmp_path / "obs"
        server = TraceServer(
            ("127.0.0.1", 0), tmp_path / "corpus", workers=1, obs_dir=obs_dir
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                client.submit_trace(racy_trace, ["hb+tc+detect"])
                client.wait_idle(timeout=120)
                stats = client.stats(metrics=False)
                wait = stats["queue"]["wait"]
                assert wait["count"] >= 1
                assert wait["max_ns"] >= 0
        finally:
            server.close()

    def test_untraced_server_emits_no_span_files(self, tmp_path, racy_trace):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                client.submit_trace(racy_trace, ["hb+tc+detect"])
                client.wait_idle(timeout=120)
        finally:
            server.close()
        assert not list((tmp_path / "corpus").rglob("spans-*.jsonl"))
