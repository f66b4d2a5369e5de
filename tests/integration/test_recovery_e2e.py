"""End-to-end crash-recovery tests of the serve subsystem.

The acceptance scenario of the recovery work: a ``repro serve`` process
SIGKILLed mid-flight — mid-queue and mid-streaming-ingest — restarted on
the same data directory must converge to *exactly* the results an
uninterrupted run produces: identical race sets in the results store,
byte-identical ingested stream bytes, no lost and no duplicated work.
Plus the supporting cast: graceful SIGTERM drain, torn-write torture on
every durable artifact, poison-job quarantine, and a chaos monkey that
the fleet must simply survive.

Every kill here is ``SIGKILL`` to the whole process group
(``start_new_session=True`` at spawn), so worker children die with the
server — the "machine lost power" fault, not a polite shutdown.
"""

import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from faults import ChaosMonkey, append_garbage, poison, tear_tail
from repro import TraceBuilder
from repro.gen.scenarios import SCENARIOS
from repro.recovery import QuarantineStore, read_journal, replay_journal
from repro.serve import ServeClient, TraceServer
from repro.serve.client import ServeClientError, parse_address
from repro.serve.corpus import TraceCorpus
from repro.serve.jobs import job_id_of
from repro.serve.protocol import encode_message
from repro.serve.results import ResultsStore
from repro.trace.io import save_trace, std_line

# Spawns and SIGKILLs server subprocesses: runs in the `-m slow` CI lane.
pytestmark = pytest.mark.slow

SPECS = ["hb+tc+detect", "shb+vc+detect", "maz+tc+detect"]


def racy_trace(rounds, name="racy"):
    """Locked *and* unlocked contention on shared variables: always races."""
    builder = TraceBuilder(name=name)
    for round_index in range(rounds):
        for tid in (1, 2, 3):
            builder.acquire(tid, "m").write(tid, "guarded").release(tid, "m")
            builder.write(tid, f"x{tid}")
            builder.read(tid, 1000 + round_index % 7)
            builder.write(tid, 1000 + round_index % 7)
    return builder.build()


def scenario_file(tmp_path, scenario, args, filename):
    path = tmp_path / filename
    save_trace(SCENARIOS[scenario](*args), path, fmt="std")
    return path


def start_serve(corpus_dir, *extra_args):
    """Spawn ``repro serve`` in its own process group; returns (proc, host, port)."""
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
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    banner = process.stdout.readline()
    if not banner.startswith("serving on "):
        out, err = process.communicate(timeout=10)
        pytest.fail(f"server did not start: banner={banner!r} stdout={out!r} stderr={err!r}")
    host, port = parse_address(banner.split()[2])
    return process, host, port


def kill9(process):
    """SIGKILL the server *and its worker children* (same process group)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        process.kill()
    process.wait(timeout=30)


def stop_hard(process):
    if process.poll() is None:
        kill9(process)


def race_pairs(races):
    """Canonical sorted pair strings of wire-format race dicts."""
    return sorted(
        f"{r['variable']}: (t{r['prior_tid']}@{r['prior_local_time']}) || "
        f"(t{r['event_tid']}, event {r['event_eid']}, {r['event_kind']})"
        for r in races
    )


def run_baseline(corpus_dir, trace_files, specs):
    """The uninterrupted reference run: results per digest from a fresh server."""
    server = TraceServer(("127.0.0.1", 0), corpus_dir, workers=2)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with ServeClient(*server.address) as client:
            digests = [str(client.submit_file(path, specs)["digest"]) for path in trace_files]
            client.wait_idle(timeout=300)
            return {digest: client.results(digest) for digest in digests}
    finally:
        server.close()


class TestKill9MidQueue:
    """SIGKILL with jobs queued/running; restart must converge to baseline."""

    def test_differential_recovery_matches_uninterrupted(self, tmp_path):
        trace_files = [
            scenario_file(tmp_path, "single_lock", (4, 6000, 0), "t0.std.gz"),
            scenario_file(tmp_path, "star_topology", (6, 6000, 1), "t1.std.gz"),
        ]
        baseline = run_baseline(tmp_path / "baseline-corpus", trace_files, SPECS)

        corpus = tmp_path / "crash-corpus"
        process, host, port = start_serve(corpus)
        digests = []
        try:
            with ServeClient(host, port) as client:
                for path in trace_files:
                    digests.append(str(client.submit_file(path, SPECS)["digest"]))
            # jobs are now pending/running on the workers: pull the plug
            kill9(process)
        finally:
            stop_hard(process)
        # content addressing: both servers must agree on the digests
        assert set(digests) == set(baseline)

        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                status = client.wait_idle(timeout=300)
                assert status["recovery"]["jobs_recovered"] > 0
                jobs = status["scheduler"]["jobs"]
                assert jobs["failed"] == 0 and jobs.get("quarantined", 0) == 0
                for digest in digests:
                    results = client.results(digest)
                    for spec in SPECS:
                        assert results[spec]["race_count"] == baseline[digest][spec]["race_count"]
                        assert results[spec]["races"] == baseline[digest][spec]["races"]
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            stop_hard(process)
        # after the clean shutdown every journaled job reached a terminal
        # record: a third incarnation would have nothing to replay
        replayed = replay_journal(read_journal(corpus / "journal.jsonl"))
        assert replayed and not any(record.orphaned for record in replayed.values())


class TestLostResultReplay:
    def test_completed_job_with_lost_result_is_rerun(self, tmp_path):
        # The results log and the journal are not flushed to the disk
        # together, so a power loss can keep the journal's "complete"
        # record and tear the cell's record off the log.  Replay must
        # treat "complete but no stored result" as work to redo, not as
        # done.
        spec = "hb+tc+detect"
        corpus_dir = tmp_path / "corpus"
        path = scenario_file(tmp_path, "single_lock", (4, 400, 0), "t.std.gz")
        server = TraceServer(("127.0.0.1", 0), corpus_dir, workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                digest = str(client.submit_file(path, [spec])["digest"])
                client.wait_idle(timeout=120)
                expected = client.results(digest)
        finally:
            server.close()

        # tear the log's last (and only) record: journal says complete,
        # the cell's payload did not survive
        results_path = corpus_dir / "results.jsonl"
        assert len(results_path.read_bytes().splitlines()) == 1
        tear_tail(results_path, drop_bytes=9)

        server = TraceServer(("127.0.0.1", 0), corpus_dir, workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            assert server.recovered_jobs == [job_id_of(digest, spec)]
            with ServeClient(*server.address) as client:
                client.wait_idle(timeout=120)
                results = client.results(digest)
                assert results[spec]["race_count"] == expected[spec]["race_count"]
                assert results[spec]["races"] == expected[spec]["races"]
        finally:
            server.close()


class TestKill9MidStream:
    """SIGKILL mid-checkpointed-stream; resume must converge to baseline."""

    def test_stream_resume_differential(self, tmp_path):
        spec = "shb+tc+detect"
        trace = racy_trace(rounds=180, name="resumable")
        lines = [std_line(event) for event in trace]

        # the uninterrupted reference stream (fresh in-process server)
        server = TraceServer(("127.0.0.1", 0), tmp_path / "baseline-corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                stream = client.stream_begin("resumable", [spec], save=True)
                for start in range(0, len(lines), 50):
                    stream.feed_lines(lines[start : start + 50])
                baseline = stream.end()
        finally:
            server.close()
        assert baseline["specs"][spec]["race_count"] > 0  # the scenario is racy

        corpus = tmp_path / "crash-corpus"
        process, host, port = start_serve(corpus)
        fed = 1500
        try:
            client = ServeClient(host, port)
            stream = client.stream_begin(
                "resumable", [spec], save=True, checkpoint=True, checkpoint_every=64
            )
            for start in range(0, fed, 50):
                stream.feed_lines(lines[start : start + 50])
            kill9(process)
            client.close()
        finally:
            stop_hard(process)

        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                handle, resumed = client.stream_resume("resumable")
                offset = handle.events_sent
                # the snapshot covers a prefix of what we fed, never more
                assert 0 < offset <= fed
                assert resumed["race_count"] == len(resumed["races"])
                for start in range(offset, len(lines), 50):
                    handle.feed_lines(lines[start : start + 50])
                final = handle.end()
                assert final["events"] == len(lines)
                assert final["specs"][spec]["race_count"] == baseline["specs"][spec]["race_count"]
                assert race_pairs(final["races"]) == race_pairs(baseline["races"])
                # byte-offset-exact spool continuation: the re-ingested
                # stream content-addresses identically to the unbroken run
                assert final["digest"] == baseline["digest"]
                # a cleanly finished stream leaves no snapshot behind
                assert not list((corpus / "recovery").glob("stream-*.json"))
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            stop_hard(process)

    def test_stream_resume_without_checkpoint_is_an_error(self, tmp_path):
        server = TraceServer(("127.0.0.1", 0), tmp_path / "corpus", workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                with pytest.raises(ServeClientError):
                    client.stream_resume("never-checkpointed")
        finally:
            server.close()


class TestKill9MidSubmitBody:
    """SIGKILL while a submit body is half sent; the restart sweeps the temp file."""

    def test_restart_deletes_the_half_ingested_temp_file(self, tmp_path):
        text = "".join(std_line(event) + "\n" for event in racy_trace(rounds=2000))
        data = text.encode("utf-8")
        corpus = tmp_path / "corpus"
        process, host, port = start_serve(corpus)
        try:
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(encode_message({"op": "submit", "specs": ["hb+tc"]}))
                half = len(data) // 2
                sock.sendall(b"%d\n" % half + data[:half])
                # The ingest is under way once its temp file exists.
                deadline = time.monotonic() + 30
                while not list((corpus / "traces").glob(".ingest-*.tmp.colf")):
                    assert time.monotonic() < deadline, "the ingest never started"
                    time.sleep(0.01)
                kill9(process)
        finally:
            stop_hard(process)
        assert list((corpus / "traces").glob(".ingest-*.tmp.colf"))

        process, host, port = start_serve(corpus)
        try:
            assert list((corpus / "traces").iterdir()) == []
            with ServeClient(host, port) as client:
                response = client.submit_text(text, ["hb+tc"])
                assert response["created"]
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            stop_hard(process)
        expected, _ = TraceCorpus(tmp_path / "reference").ingest(racy_trace(rounds=2000))
        assert response["digest"] == expected.digest
        assert sorted(path.name for path in (corpus / "traces").iterdir()) == [expected.filename]


class TestGracefulShutdown:
    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        path = scenario_file(tmp_path, "single_lock", (4, 800, 0), "t.std.gz")
        corpus = tmp_path / "corpus"
        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                digest = str(client.submit_file(path, SPECS)["digest"])
            process.send_signal(signal.SIGTERM)
            _out, err = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "received SIGTERM" in err
        finally:
            stop_hard(process)

        # whatever the drain did not finish, the restart completes — the
        # operator sees the full result set either way
        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                client.wait_idle(timeout=300)
                results = client.results(digest)
                assert set(results) >= set(SPECS)
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            stop_hard(process)


class TestTornWriteTorture:
    def test_torn_writes_never_brick_the_data_dir(self, tmp_path):
        path = scenario_file(tmp_path, "pairwise_communication", (4, 3000, 2), "t.std.gz")
        corpus = tmp_path / "corpus"
        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                digest = str(client.submit_file(path, SPECS)["digest"])
                # let a cell reach the results log, so there is a record to tear
                deadline = time.monotonic() + 120
                while not client.results(digest) and time.monotonic() < deadline:
                    time.sleep(0.02)
            kill9(process)
        finally:
            stop_hard(process)

        # model every crash artifact at once: torn tails of both logs, a
        # tear that looks like data, and stale .tmp files next to the
        # atomic documents and the log's compaction
        results_path = corpus / "results.jsonl"
        journal_path = corpus / "journal.jsonl"
        for log_path in (results_path, journal_path):
            tear_tail(log_path, drop_bytes=9)
            append_garbage(log_path)
        (corpus / "results.jsonl.tmp").write_text('{"torn')
        (corpus / "index.json.tmp").write_text('{"torn')
        (corpus / "quarantine.json").write_text('{"torn')

        # every durable artifact still loads offline (the results log on
        # a copy: opening it repairs it, which the restart must do itself)
        assert TraceCorpus(corpus).get(digest).events > 0
        offline = tmp_path / "offline" / "results.jsonl"
        offline.parent.mkdir()
        shutil.copy(results_path, offline)
        ResultsStore(offline).close()
        errors = []
        read_journal(journal_path, errors=errors)  # lenient: tears reported, not fatal
        assert len(QuarantineStore(corpus / "quarantine.json")) == 0

        # and the server restarts on the mangled directory and finishes
        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                client.wait_idle(timeout=300)
                results = client.results(digest)
                assert set(results) >= set(SPECS)
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            stop_hard(process)

    def test_repeated_kill9_cycles_converge(self, tmp_path):
        # Three power-loss cycles in a row: each incarnation inherits the
        # previous one's mess and must still converge to the full result
        # set with no failed jobs.
        path = scenario_file(tmp_path, "star_topology", (6, 6000, 3), "t.std.gz")
        corpus = tmp_path / "corpus"
        digest = None
        for _cycle in range(3):
            process, host, port = start_serve(corpus)
            try:
                with ServeClient(host, port) as client:
                    if digest is None:
                        digest = str(client.submit_file(path, SPECS)["digest"])
                    time.sleep(0.2)  # let some jobs start (and maybe finish)
                kill9(process)
            finally:
                stop_hard(process)

        process, host, port = start_serve(corpus)
        try:
            with ServeClient(host, port) as client:
                status = client.wait_idle(timeout=300)
                assert status["scheduler"]["jobs"]["failed"] == 0
                results = client.results(digest)
                assert set(results) >= set(SPECS)
                client.shutdown()
            assert process.wait(timeout=60) == 0
        finally:
            stop_hard(process)


class TestQuarantineEndToEnd:
    def test_poison_job_is_parked_persisted_and_force_released(self, tmp_path):
        spec = "hb+tc+detect"
        trace = SCENARIOS["single_lock"](4, 400, 0)
        server = TraceServer(
            ("127.0.0.1", 0), tmp_path / "corpus", workers=1, retry_budget=1
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                # ingest first (no jobs), so the fault is armed before dispatch
                stream = client.stream_begin("poison", [], save=True)
                stream.feed_lines([std_line(event) for event in trace])
                digest = str(stream.end()["digest"])
                job_id = job_id_of(digest, spec)
                poisoned = poison(server.scheduler)
                poisoned.add(job_id)

                response = client.analyze(digest, [spec])
                assert response["jobs"] == [job_id]
                rows = client.wait_for_jobs(response["jobs"], timeout=120)
                assert rows[0]["status"] == "quarantined"

                # parked durably and surfaced, not retried into the ground
                assert job_id in server.quarantine
                assert job_id in QuarantineStore(server.corpus.root / "quarantine.json")
                status = client.status()
                assert status["recovery"]["quarantined"] == 1
                again = client.analyze(digest, [spec])
                assert again["quarantined"] == [job_id] and not again["jobs"]

                # cured + force: released for a fresh run that completes
                poisoned.remove(job_id)
                released = client.analyze(digest, [spec], force=True)
                assert released["jobs"] == [job_id]
                rows = client.wait_for_jobs(released["jobs"], timeout=120)
                assert rows[0]["status"] == "done"
                assert client.results(digest)[spec]["race_count"] is not None
                assert job_id not in server.quarantine
        finally:
            server.close()

    def test_quarantine_survives_a_restart(self, tmp_path):
        spec = "hb+tc+detect"
        trace = SCENARIOS["single_lock"](4, 400, 1)
        corpus_dir = tmp_path / "corpus"
        server = TraceServer(("127.0.0.1", 0), corpus_dir, workers=1, retry_budget=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                stream = client.stream_begin("poison", [], save=True)
                stream.feed_lines([std_line(event) for event in trace])
                digest = str(stream.end()["digest"])
                job_id = job_id_of(digest, spec)
                poison(server.scheduler).add(job_id)
                client.wait_for_jobs(client.analyze(digest, [spec])["jobs"], timeout=120)
        finally:
            server.close()

        # the next incarnation refuses the poison pill without being told
        server = TraceServer(("127.0.0.1", 0), corpus_dir, workers=1, retry_budget=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with ServeClient(*server.address) as client:
                response = client.analyze(digest, [spec])
                assert response["quarantined"] == [job_id] and not response["jobs"]
                assert client.status()["recovery"]["quarantined"] == 1
        finally:
            server.close()


class TestChaosMonkeyEndToEnd:
    def test_fleet_survives_continuous_worker_kills(self, tmp_path):
        trace_files = [
            scenario_file(tmp_path, "single_lock", (4, 6000, index), f"t{index}.std.gz")
            for index in range(4)
        ]
        specs = ["hb+tc+detect", "shb+vc+detect"]
        server = TraceServer(
            ("127.0.0.1", 0), tmp_path / "corpus", workers=2, retry_budget=6
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def live_workers():
            return [row["pid"] for row in server.scheduler.pool.worker_stats() if row["alive"]]

        monkey = ChaosMonkey(live_workers, seed=5, interval=0.6, kill_rate=1.0)
        monkey.start()
        try:
            with ServeClient(*server.address) as client:
                digests = [
                    str(client.submit_file(path, specs)["digest"]) for path in trace_files
                ]
                client.wait_idle(timeout=300)
                # the matrix may outrun the monkey's first swing: keep the
                # fleet busy with forced re-runs until a kill actually lands
                deadline = time.monotonic() + 60
                while not monkey.kills and time.monotonic() < deadline:
                    for digest in digests:
                        client.analyze(digest, specs, force=True)
                    client.wait_idle(timeout=300)
                assert monkey.kills  # the monkey actually drew blood
                status = client.wait_idle(timeout=300)
                jobs = status["scheduler"]["jobs"]
                assert jobs["done"] == len(trace_files) * len(specs)
                assert jobs["failed"] == 0 and jobs.get("quarantined", 0) == 0
                for digest in digests:
                    assert set(client.results(digest)) >= set(specs)
        finally:
            monkey.stop()
            server.close()
