"""End-to-end tests of the trace-analysis service.

The acceptance scenario of the serve subsystem: start a server, submit
several traces × several specs with a multi-worker pool, and check that
``repro status`` reports every job completed with race sets *identical*
to single-process ``repro analyze --spec`` output; plus the streaming
path: live ingest over the socket must report exactly the races of a
post-hoc analysis of the same events.
"""

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from faults import FaultyTask
from repro.cli import main as repro_main
from repro.gen.scenarios import SCENARIOS
from repro.serve import ServeClient, ServeClientError, TraceServer
from repro.serve import server as server_module
from repro.serve.cli import main_serve, main_status, main_submit
from repro.serve.corpus import MAX_LINE_BYTES, TraceCorpus
from repro.serve.protocol import encode_message, read_message, write_body, write_message
from repro.trace.io import TraceFormatError, iter_trace_file, save_trace, std_line
from repro.api import Session

# Spawns worker processes and subprocesses: runs in the `-m slow` CI lane.
pytestmark = pytest.mark.slow

SPECS = ["hb+tc+detect", "shb+vc+detect"]


@pytest.fixture
def scenario_traces():
    """Three small scalability-scenario traces with nontrivial race sets."""
    return [
        SCENARIOS["single_lock"](4, 300, 0),
        SCENARIOS["star_topology"](6, 300, 1),
        SCENARIOS["pairwise_communication"](4, 300, 2),
    ]


@pytest.fixture
def trace_files(tmp_path, scenario_traces):
    paths = []
    for index, trace in enumerate(scenario_traces):
        path = tmp_path / f"trace-{index}.std.gz"
        save_trace(trace, path, fmt="std")
        paths.append(path)
    return paths


def analyze_cli_races(path, spec, capsys):
    """Race pairs according to single-process ``repro analyze --spec``."""
    assert repro_main([str(path), "--spec", spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    detection = payload["specs"][spec]["detection"]
    return detection["race_count"], sorted(
        f"{r['variable']}: (t{r['prior_tid']}@{r['prior_local_time']}) || "
        f"(t{r['event_tid']}, event {r['event_eid']}, {r['event_kind']})"
        for r in detection["races"]
    )


class TestServerEndToEnd:
    def test_submit_matrix_matches_single_process_analyze(
        self, tmp_path, scenario_traces, trace_files, capsys
    ):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=4)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                digests = [
                    client.submit_file(path, SPECS)["digest"] for path in trace_files
                ]
                status = client.wait_idle(timeout=120)
                jobs = status["scheduler"]["jobs"]
                assert jobs["done"] == len(trace_files) * len(SPECS)
                assert jobs["failed"] == 0 and jobs["pending"] == 0 and jobs["running"] == 0
                # The status counts are running tallies: they must equal a
                # recount of the job list, and the corpus total its traces.
                detailed = client.status(detail=True)
                rows = detailed["scheduler"]["job_list"]
                recount = {status: 0 for status in jobs}
                for row in rows:
                    recount[row["status"]] += 1
                assert detailed["scheduler"]["jobs"] == recount
                assert detailed["scheduler"]["recovered"] == sum(row["recovered"] for row in rows)
                assert detailed["corpus"]["events"] == sum(len(trace) for trace in scenario_traces)
                for path, digest in zip(trace_files, digests):
                    results = client.results(digest)
                    for spec in SPECS:
                        count, pairs = analyze_cli_races(path, spec, capsys)
                        assert results[spec]["race_count"] == count
                        assert results[spec]["races"] == pairs
        finally:
            server.close()

    def test_streaming_ingest_matches_post_hoc(self, tmp_path, scenario_traces):
        trace = scenario_traces[1]
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                stream = client.stream_begin("live", ["shb+tc+detect"], save=True)
                replies = stream.feed_events(iter(trace), batch=32)
                final = stream.end()
            post_hoc = Session(["shb+tc+detect"]).run(trace)["shb+tc+detect"]
            assert final["events"] == len(trace)
            assert (
                final["specs"]["shb+tc+detect"]["race_count"]
                == post_hoc.detection.race_count
            )
            streamed_pairs = sorted(
                f"{r['variable']}: (t{r['prior_tid']}@{r['prior_local_time']}) || "
                f"(t{r['event_tid']}, event {r['event_eid']}, {r['event_kind']})"
                for r in final["races"]
            )
            assert streamed_pairs == sorted(
                race.pair() for race in post_hoc.detection.races
            )
            # the stream was ingested into the corpus and is analyzable there
            assert "digest" in final
            assert server.corpus.get(final["digest"]).events == len(trace)
        finally:
            server.close()

    def test_file_submit_streams_and_analyzes(self, tmp_path, trace_files, capsys):
        # submit_file sends the file's canonical STD lines as the submit
        # body, whatever the size; a text submit of the same lines dedupes.
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                response = client.submit_file(trace_files[0], SPECS)
                assert len(response["jobs"]) == len(SPECS)
                digest = str(response["digest"])
                client.wait_for_jobs(response["jobs"], timeout=120)
                results = client.results(digest)
                for spec in SPECS:
                    count, pairs = analyze_cli_races(trace_files[0], spec, capsys)
                    assert results[spec]["race_count"] == count
                    assert results[spec]["races"] == pairs
                text = "".join(
                    std_line(event) + "\n" for event in iter_trace_file(trace_files[0])
                )
                again = client.submit_text(text, SPECS)
                assert again["digest"] == digest and not again["created"]
                assert len(again["cached"]) == len(SPECS)
        finally:
            server.close()

    def test_streaming_a_live_capture_matches_post_hoc(self, tmp_path):
        # The capture → serve pipeline: record a real racy two-thread
        # program, stream the captured events over the socket, and check
        # the streamed race report against a post-hoc analysis of the
        # same capture.
        from repro.capture import Shared, capture, spawn

        with capture(name="captured-race") as recorder:
            counter = Shared(0, name="counter")
            workers = [spawn(lambda: counter.set(counter.get() + 1)) for _ in range(3)]
            for worker in workers:
                worker.join()
        trace = recorder.trace()
        post_hoc = Session(["shb+tc+detect"]).run(trace)["shb+tc+detect"]
        assert post_hoc.detection.race_count > 0  # the capture is racy

        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                stream = client.stream_begin("captured-race", ["shb+tc+detect"])
                stream.feed_events(iter(trace), batch=16)
                final = stream.end()
            assert final["events"] == len(trace)
            assert (
                final["specs"]["shb+tc+detect"]["race_count"]
                == post_hoc.detection.race_count
            )
        finally:
            server.close()

    def test_race_reports_arrive_before_stream_end(self, tmp_path):
        # A trace whose race completes early: the reply to the feed that
        # completes it (not just stream_end) must carry it — that is the
        # "races as they are found" contract.
        from repro import TraceBuilder

        builder = TraceBuilder(name="early-race")
        builder.write(1, "x").write(2, "x")
        for index in range(200):
            builder.acquire(1, "l").write(1, f"y{index % 5}").release(1, "l")
        trace = builder.build()
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                stream = client.stream_begin("early", ["shb+tc+detect"])
                first, second = trace.events[:2]
                assert stream.feed(first)["races"] == []
                reply = stream.feed(second)  # the write that completes the race
                assert [race["event_eid"] for race in reply["races"]] == [1]
                assert reply["race_count"] == 1
                stream.end()
        finally:
            server.close()


class TestRequestFrameLimit:
    def test_oversize_request_is_refused_and_the_server_keeps_serving(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 1024)
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                sock.sendall(encode_message({"op": "ping", "pad": "x" * 4096}))
                with sock.makefile("rb") as reader:
                    response = read_message(reader)
                    assert not response["ok"] and "1024-byte frame limit" in response["error"]
                    assert read_message(reader) is None  # the server hung up
            with ServeClient(*server.address) as client:
                assert client.ping()["ok"]
                # An 8 MB trace is a body, not a frame: the cap does not apply.
                text = "T1|w(x)\n" * 1_000_000
                response = client.submit_text(text, ["hb+tc"])
                path = tmp_path / "big.std"
                path.write_text(text)
                expected, _ = TraceCorpus(tmp_path / "reference").ingest(path)
                assert response["digest"] == expected.digest
                assert response["events"] == 1_000_000
                assert client.ping()["ok"]
                # A feed batch is one frame: past the cap it is refused.
                stream = client.stream_begin("capped", ["hb+tc"])
                with pytest.raises(ServeClientError, match="1024-byte frame limit"):
                    stream.feed_lines(["T1|w(x)"] * 200)
            with ServeClient(*server.address) as client:
                stream = client.stream_begin("capped", ["hb+tc"])
                # Refused mid-send, the client still reports the server's answer.
                with pytest.raises(ServeClientError, match="1024-byte frame limit"):
                    stream.feed_lines(["T1|w(x)"] * 1_000_000)
            with ServeClient(*server.address) as client:
                assert client.ping()["ok"]
        finally:
            server.close()


class TestSubmitBody:
    """A submit body that fails mid-way costs that submit, not the connection."""

    @pytest.mark.parametrize(
        "bad_chunk, error",
        [
            (b"T2|w(\xff)\n", "can't decode byte 0xff"),
            (b"T2|nope\n", "line 1001"),
            (b"x" * (3 << 20), f"a line is longer than {MAX_LINE_BYTES} bytes"),
        ],
        ids=["invalid-utf8", "bad-line", "endless-line"],
    )
    def test_failed_body_is_answered_and_the_connection_still_serves(
        self, tmp_path, bad_chunk, error
    ):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        chunks = [b"T1|w(x)\n" * 1000, bad_chunk, b"T1|w(x)\n" * 50_000]
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                with sock.makefile("rb") as reader, sock.makefile("wb") as writer:
                    write_message(writer, {"op": "submit", "specs": ["hb+tc"]})
                    write_body(writer, chunks)
                    response = read_message(reader)
                    assert not response["ok"] and error in response["error"]
                    write_message(writer, {"op": "ping"})
                    assert read_message(reader)["ok"]  # the same connection
            with ServeClient(*server.address, retries=0) as client:
                with pytest.raises(ServeClientError, match=error):
                    client.request(
                        {"op": "submit", "specs": ["hb+tc"]}, body=lambda: iter(chunks)
                    )
                # The client drops a connection whose body was refused.
                assert client._socket is None
                assert client.submit_text("T1|w(x)\n", ["hb+tc"])["created"]
            assert len(server.corpus) == 1
            assert [path.name for path in server.corpus.traces_dir.iterdir()] == [
                server.corpus.entries()[0].filename
            ]
        finally:
            server.close()

    def test_a_malformed_chunk_size_is_answered_then_hung_up(self, tmp_path):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                # A repro-serve/2 submit has no body: refused, the connection serves on.
                v2 = {"op": "submit", "text": "T1|w(x)\n", "specs": ["hb+tc"]}
                sock.sendall(encode_message(v2))
                sock.sendall(encode_message({"op": "submit", "specs": ["hb+tc"]}))
                sock.sendall(b"8\nT1|w(x)\nlots\n")
                with sock.makefile("rb") as reader:
                    response = read_message(reader)
                    assert not response["ok"] and "not a 'text' field" in response["error"]
                    response = read_message(reader)
                    assert not response["ok"]
                    assert "malformed body chunk size b'lots\\n'" in response["error"]
                    assert read_message(reader) is None  # the server hung up
            with ServeClient(*server.address) as client:
                assert client.ping()["ok"]
            assert len(server.corpus) == 0
            assert list(server.corpus.traces_dir.iterdir()) == []
        finally:
            server.close()

    def test_a_small_submit_does_not_wait_for_a_delayed_ack(self, tmp_path):
        # The frame and the body are separate writes; with Nagle's
        # algorithm on, each small submit waited ~40 ms for the server to
        # acknowledge its frame.
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                client.submit_text("T1|w(x)\n", ["hb+tc"])
                took = []
                for number in range(15):
                    started = time.perf_counter()
                    client.submit_text(f"T1|w(x{number})\nT2|w(x{number})\n", ["hb+tc"])
                    took.append(time.perf_counter() - started)
            took.sort()
            assert took[len(took) // 2] < 0.02, took
        finally:
            server.close()

    def test_failed_local_file_drops_the_connection_not_the_server(self, tmp_path):
        # The file turns out malformed after part of it was sent: the
        # client raises the parse error and hangs up mid-body; the server
        # drops that ingest and keeps serving.
        path = tmp_path / "bad.std"
        path.write_text("T1|w(x)\n" * 20_000 + "T1|nope\n")
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                with pytest.raises(TraceFormatError, match="line 20001"):
                    client.submit_file(path, ["hb+tc"])
                assert client.ping()["ok"]
            deadline = time.monotonic() + 10
            while list(server.corpus.traces_dir.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert list(server.corpus.traces_dir.iterdir()) == []
            assert len(server.corpus) == 0
        finally:
            server.close()


class TestServeCliEndToEnd:
    def test_serve_submit_status_shutdown_cycle(self, tmp_path, trace_files, capsys):
        corpus_dir = tmp_path / "cli-corpus"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--corpus",
                str(corpus_dir),
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving on "), banner
            address = banner.split()[2]

            exit_code = main_submit(
                [
                    address,
                    str(trace_files[0]),
                    "--spec",
                    "hb+tc+detect",
                    "--spec",
                    "shb+vc+detect",
                    "--wait",
                    "--timeout",
                    "120",
                    "--json",
                ]
            )
            assert exit_code == 0
            submission = json.loads(capsys.readouterr().out)
            assert len(submission["jobs"]) == 2
            assert set(submission["results"]) == set(SPECS)

            assert main_status([address, "--results", "--json"]) == 0
            status_payload = json.loads(capsys.readouterr().out)
            jobs = status_payload["status"]["scheduler"]["jobs"]
            assert jobs["done"] == 2 and jobs["failed"] == 0
            assert len(status_payload["results"]) == 2

            assert main_status([address, "--shutdown"]) == 0
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_submit_wait_reports_failed_jobs_with_exit_1(self, tmp_path, trace_files, capsys):
        # A job that fails on the workers (here: the stored corpus file
        # vanished) must surface in `repro submit --wait` output and in
        # the exit code — not silently disappear from the results.
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        address = f"{host}:{port}"
        try:
            with ServeClient(host, port) as client:
                response = client.submit_file(trace_files[0], ["hb+tc"])
                client.wait_for_jobs(response["jobs"], timeout=60)
                digest = response["digest"]
            server.corpus.trace_path(digest).unlink()  # break the stored trace

            exit_code = main_submit(
                [address, str(trace_files[0]), "--spec", "hb+vc", "--wait", "--timeout", "60"]
            )
            assert exit_code == 1
            output = capsys.readouterr().out
            assert "FAILED" in output and "FileNotFoundError" in output
        finally:
            server.close()

    def test_wait_for_jobs_is_scoped_to_own_submission(self, tmp_path, trace_files):
        # wait_for_jobs must return even while unrelated jobs are queued.
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                # a big unrelated backlog from "another tenant"
                backlog = client.submit_file(
                    trace_files[1], ["hb+tc", "hb+vc", "shb+tc", "shb+vc", "maz+tc", "maz+vc"]
                )
                mine = client.submit_file(trace_files[0], ["hb+tc+detect"])
                rows = client.wait_for_jobs(mine["jobs"], timeout=60)
                assert [row["status"] for row in rows] == ["done"]
                client.wait_for_jobs(backlog["jobs"], timeout=60)
        finally:
            server.close()

    def test_submit_against_dead_server_fails_cleanly(self, tmp_path, trace_files, capsys):
        exit_code = main_submit(["127.0.0.1:1", str(trace_files[0]), "--spec", "hb+tc"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_main_serve_parser_defaults(self):
        from repro.serve.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.workers == 2 and args.host == "127.0.0.1"


class TestServeBenchSuite:
    def test_bench_run_emits_valid_serve_artifact_and_compare_works(self, tmp_path):
        from repro.bench.artifact import load_artifact
        from repro.bench.cli import main as bench_main

        out = tmp_path / "artifacts"
        assert (
            bench_main(
                [
                    "run",
                    "--suite",
                    "serve",
                    "--events",
                    "400",
                    "--repeats",
                    "2",
                    "--warmup",
                    "0",
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        artifact = load_artifact(out / "BENCH_serve.json")  # schema-validates
        names = [entry["name"] for entry in artifact["results"]]
        assert any(name.startswith("serve/jobs-") for name in names)
        assert any(name.startswith("serve/ingest-") for name in names)
        for entry in artifact["results"]:
            assert entry["events"] > 0 and entry["best_ns"] > 0
        # compare against itself: no regressions, exit 0
        assert (
            bench_main(
                [
                    "compare",
                    str(out / "BENCH_serve.json"),
                    str(out / "BENCH_serve.json"),
                    "--strict",
                ]
            )
            == 0
        )


class TestPoolShutdownEscalation:
    def test_terminate_works_after_failed_close(self, tmp_path):
        # close() on a wedged pool returns False and must leave the pool
        # killable: terminate() then reaps the worker, fails the stuck
        # task, and stops the monitor — the escalation every caller uses.
        from repro import TraceBuilder
        from repro.serve import WorkerPool, WorkerTask

        trace = TraceBuilder(name="t").write(1, "x").build()
        path = tmp_path / "t.std"
        save_trace(trace, path)
        pool = WorkerPool(workers=1).start()
        pool.submit(
            FaultyTask(WorkerTask(task_id="stuck", trace_path=str(path), spec="hb+tc"), "hang")
        )
        assert pool.close(timeout=0.5) is False
        worker = next(iter(pool._workers.values())).process
        pool.terminate()
        assert not worker.is_alive()
        assert pool.inflight == 0
        payload, error, _ = pool._completed["stuck"]
        assert payload is None and "terminated" in error


class TestPoolTimeoutEndToEnd:
    def test_hung_task_is_timed_out_and_retried_once(self, tmp_path):
        from repro import TraceBuilder
        from repro.serve import WorkerPool, WorkerTask

        trace = TraceBuilder(name="t").write(1, "x").write(2, "x").build()
        path = tmp_path / "t.std"
        save_trace(trace, path)
        pool = WorkerPool(workers=1, task_timeout=0.4).start()
        try:
            started = time.monotonic()
            results = pool.run_batch(
                [
                    FaultyTask(
                        WorkerTask(task_id="wedge", trace_path=str(path), spec="hb+tc"), "hang"
                    )
                ],
                timeout=30,
            )
            elapsed = time.monotonic() - started
            payload, error, attempts = results["wedge"]
            assert payload is None and "timed out" in error and attempts == 2
            assert elapsed < 10  # two timeout cycles, not the 3600 s hang
            assert pool.alive_workers == 1  # replacement worker is up
        finally:
            pool.terminate()


class TestStatsRoundTrip:
    """The ``stats`` protocol op: live operator metrics over the wire."""

    def test_stats_reports_queue_fleet_and_throughput(self, tmp_path, trace_files):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        try:
            with ServeClient(host, port) as client:
                for path in trace_files:
                    client.submit_file(path, SPECS)
                client.wait_idle(timeout=120)
                stats = client.stats()

                expected_done = len(trace_files) * len(SPECS)
                assert stats["uptime_seconds"] > 0
                assert stats["queue"]["depth"] == 0
                assert stats["inflight"] == 0
                assert stats["jobs"]["done"] == expected_done
                assert stats["results"] == expected_done
                assert stats["pool"]["jobs_done"] == expected_done
                assert stats["pool"]["crashes"] == 0
                assert stats["throughput"]["jobs_done"] == expected_done
                assert stats["throughput"]["jobs_per_second"] > 0

                workers = stats["workers"]
                assert len(workers) == 2 and all(row["alive"] for row in workers)
                assert sum(row["jobs_done"] for row in workers) == expected_done
                # RSS gauges: procfs is available on the CI platform
                assert all(row["rss_bytes"] > 0 for row in workers)
                assert stats["rss_bytes"] > 0

                # The server process enables the default registry, so the
                # snapshot rides along unless explicitly declined.
                snapshot = stats["metrics"]
                assert any(key.startswith("server.requests") for key in snapshot)
                assert "metrics" not in client.stats(metrics=False)
        finally:
            server.close()

    def test_status_cli_renders_stats(self, tmp_path, trace_files, capsys, monkeypatch):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.address
        address = f"{host}:{port}"
        metrics_requested = []
        stats = ServeClient.stats

        def recording_stats(client, metrics=True):
            metrics_requested.append(metrics)
            return stats(client, metrics=metrics)

        monkeypatch.setattr(ServeClient, "stats", recording_stats)
        try:
            assert main_submit([address, str(trace_files[0]), "--spec", "hb+tc+detect", "--wait"]) == 0
            capsys.readouterr()
            assert main_status([address, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["stats"]["pool"]["jobs_done"] == 1
            assert payload["stats"]["queue"]["depth"] == 0
            assert "metrics" in payload["stats"]

            # Human mode renders the live stats block (crash/retry tallies
            # included — the supervision counters must reach the operator)
            # and asks for no metrics snapshot, which it never prints.
            assert main_status([address]) == 0
            rendered = capsys.readouterr().out
            assert "jobs/s" in rendered
            assert "crashes" in rendered
            assert metrics_requested == [True, False]
        finally:
            server.close()

    def test_status_cli_exits_nonzero_when_unreachable(self, capsys):
        # A dead server must be an error (exit 2), not an empty report.
        assert main_status(["127.0.0.1:1", "--json"]) == 2
        err = capsys.readouterr().err
        assert err != ""
