"""Unit tests of the :class:`ServeClient` retry/backoff machinery.

A minimal hand-rolled TCP peer plays the faulty server: it can answer,
hard-reset (``SO_LINGER 0`` → the client sees ``ECONNRESET``), or
refuse.  The contract under test: idempotent ops reconnect and replay
under a bounded, seeded, full-jitter backoff; non-idempotent ops (the
stream family) never retry; retry outcomes land on the
``client.retries`` counter.
"""

import socket
import threading
import time

import pytest

from faults import reset_socket
from repro.obs import metrics as obs_metrics
from repro.serve import client as client_module
from repro.serve.client import ServeClient, ServeClientError, _is_transient
from repro.serve.protocol import BodyReader, read_message, write_message
from repro.trace.io import iter_trace_file, std_line


class FlakyServer:
    """A scripted TCP peer: each accepted connection runs one behavior.

    Behaviors: ``"ok"`` answers every request on the connection, after
    reading a submit's body into the request's ``body``; ``"reset"``
    reads one request frame then hard-resets the socket; ``"eof"`` reads
    one request frame then closes cleanly (the client sees EOF);
    ``"v2"`` answers every line with an error, as a server that reads a
    submit body's lines as frames does.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for behavior in self.script:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            try:
                if behavior in ("reset", "eof"):
                    request = read_message(rfile)
                    self.requests.append((behavior, request))
                    # makefile() wrappers hold the fd open; close them
                    # first so the close below is the real one (and, for
                    # "reset", carries the SO_LINGER-0 RST).
                    rfile.close()
                    wfile.close()
                    if behavior == "reset":
                        reset_socket(conn)
                    else:
                        conn.close()
                    continue
                if behavior == "v2":
                    for line in rfile:
                        self.requests.append((behavior, line))
                        write_message(wfile, {"ok": False, "error": f"bad frame {line!r}"})
                    continue
                while True:
                    request = read_message(rfile)
                    if request is None:
                        break
                    if request.get("op") == "submit":
                        request["body"] = BodyReader(rfile).read()
                    self.requests.append((behavior, request))
                    write_message(wfile, {"ok": True, "echo": request.get("op")})
            except OSError:
                pass
            finally:
                for closable in (rfile, wfile, conn):
                    try:
                        closable.close()
                    except OSError:
                        pass

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


@pytest.fixture
def metrics_registry():
    registry = obs_metrics.get_registry()
    was_enabled = registry.enabled
    registry.reset()
    registry.enable()
    yield registry
    registry.reset()
    if not was_enabled:
        registry.disable()


def retry_counts(registry):
    return {
        key: value
        for key, value in registry.snapshot().items()
        if key.startswith("client.retries")
    }


class TestTransientClassification:
    def test_resets_refusals_and_pipes_are_transient(self):
        assert _is_transient(ConnectionResetError())
        assert _is_transient(ConnectionRefusedError())
        assert _is_transient(BrokenPipeError())
        assert _is_transient(ConnectionAbortedError())

    def test_timeouts_and_plain_errors_are_not(self):
        assert not _is_transient(socket.timeout("slow"))
        assert not _is_transient(OSError("disk on fire"))
        assert not _is_transient(ValueError("nope"))


class TestRequestRetry:
    def test_idempotent_op_recovers_from_a_reset(self, metrics_registry):
        server = FlakyServer(["reset", "ok"])
        try:
            client = ServeClient(
                "127.0.0.1", server.port, timeout=5, retries=3, backoff=0.01, retry_seed=0
            )
            response = client.ping()
            assert response["echo"] == "ping"
            client.close()
        finally:
            server.close()
        counts = retry_counts(metrics_registry)
        assert any("retry" in key for key in counts)
        assert any("recovered" in key for key in counts)

    def test_retries_exhaust_with_bounded_attempts(self, metrics_registry):
        server = FlakyServer(["reset", "reset", "reset", "reset"])
        try:
            client = ServeClient(
                "127.0.0.1", server.port, timeout=5, retries=2, backoff=0.01, retry_seed=0
            )
            with pytest.raises(ServeClientError):
                client.ping()
            client.close()
        finally:
            server.close()
        # initial + 2 retries = 3 requests on the wire, then give up
        assert len(server.requests) == 3
        counts = retry_counts(metrics_registry)
        assert any("exhausted" in key for key in counts)

    def test_stream_ops_are_never_replayed(self, metrics_registry):
        server = FlakyServer(["reset", "ok"])
        try:
            client = ServeClient(
                "127.0.0.1", server.port, timeout=5, retries=3, backoff=0.01, retry_seed=0
            )
            with pytest.raises(ServeClientError):
                client.request({"op": "feed", "lines": ["w 1 x"]})
            client.close()
        finally:
            server.close()
        # exactly one attempt: replaying a feed could double-ingest events
        assert len(server.requests) == 1
        assert retry_counts(metrics_registry) == {}

    def test_a_retried_submit_resends_its_body_and_reopens_its_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "t.std"
        path.write_text("T1|w(x)\nT2|r(x)\n" * 500)
        opened = []

        def counting_iter_trace_file(source, fmt=None):
            opened.append(source)
            return iter_trace_file(source, fmt=fmt)

        monkeypatch.setattr(client_module, "iter_trace_file", counting_iter_trace_file)
        server = FlakyServer(["reset", "ok"])
        try:
            client = ServeClient(
                "127.0.0.1", server.port, timeout=5, retries=3, backoff=0.01, retry_seed=0
            )
            assert client.submit_file(path, ["hb+tc"])["echo"] == "submit"
            client.close()
        finally:
            server.close()
        assert [behavior for behavior, _ in server.requests] == ["reset", "ok"]
        assert opened == [path, path]
        expected = "".join(std_line(event) + "\n" for event in iter_trace_file(path))
        assert server.requests[1][1]["body"] == expected.encode("utf-8")

    def test_an_error_reply_to_a_body_drops_the_connection(self):
        # A server that reads the body's lines as frames answers each; the
        # next request must not read one of those stale answers.
        server = FlakyServer(["v2", "ok"])
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=5, retries=0)
            with pytest.raises(ServeClientError, match="bad frame"):
                client.submit_text("T1|w(x)\nT2|w(x)\n", ["hb+tc"])
            assert client.ping()["echo"] == "ping"
            client.close()
        finally:
            server.close()
        assert [behavior for behavior, _ in server.requests][-1] == "ok"

    def test_eof_reply_counts_as_a_reset(self):
        # A server that closes gracefully mid-request looks like EOF, not
        # ECONNRESET; the client must treat both as the same transient.
        server = FlakyServer(["eof", "ok"])
        try:
            client = ServeClient(
                "127.0.0.1", server.port, timeout=5, retries=2, backoff=0.01, retry_seed=0
            )
            assert client.ping()["echo"] == "ping"
            client.close()
        finally:
            server.close()


class TestConnectRetry:
    def test_connect_retries_until_the_server_is_up(self):
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()  # port now refuses connections

        server_box = {}

        def start_late():
            time.sleep(0.2)
            server_box["server"] = FlakyServer(["ok"])
            # rebind on the advertised port
            server_box["server"]._listener.close()
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            conn, _ = listener.accept()
            rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
            request = read_message(rfile)
            write_message(wfile, {"ok": True, "echo": request.get("op")})
            conn.close()
            listener.close()

        thread = threading.Thread(target=start_late, daemon=True)
        thread.start()
        client = ServeClient(
            "127.0.0.1", port, retries=8, backoff=0.05, backoff_max=0.2, retry_seed=1
        )
        assert client.ping()["echo"] == "ping"
        client.close()
        thread.join(timeout=10)

    def test_connect_gives_up_after_the_budget(self):
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        started = time.monotonic()
        with pytest.raises(OSError):
            ServeClient("127.0.0.1", port, retries=2, backoff=0.01, retry_seed=0)
        assert time.monotonic() - started < 10

    def test_backoff_is_seeded_and_bounded(self):
        client_sleeps = []

        class Probe(ServeClient):
            def _connect(self_inner):
                self_inner._socket = None  # skip real connection

            def _backoff_sleep(self_inner, attempt):
                ceiling = min(
                    self_inner.backoff_max,
                    self_inner.backoff * (2 ** (attempt - 1)),
                )
                delay = self_inner._rng.uniform(0.0, ceiling)
                client_sleeps.append((attempt, delay, ceiling))

        probe = Probe("127.0.0.1", 1, retries=4, backoff=0.1, backoff_max=0.3, retry_seed=9)
        for attempt in range(1, 5):
            probe._backoff_sleep(attempt)
        assert all(0.0 <= delay <= ceiling for _, delay, ceiling in client_sleeps)
        assert [ceiling for _, _, ceiling in client_sleeps] == [0.1, 0.2, 0.3, 0.3]

        replay = Probe("127.0.0.1", 1, retries=4, backoff=0.1, backoff_max=0.3, retry_seed=9)
        first_run = list(client_sleeps)
        client_sleeps.clear()
        for attempt in range(1, 5):
            replay._backoff_sleep(attempt)
        assert client_sleeps == first_run
