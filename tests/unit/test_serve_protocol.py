"""Unit tests for the serve line protocol framing, address parsing and flags."""

import io
import json

import pytest

from repro.cli import main as repro_main
from repro.serve.client import ServeClient, parse_address
from repro.serve.protocol import (
    BODY_CHUNK_CHARS,
    DEFAULT_PORT,
    PROTOCOL,
    BodyReader,
    FramingError,
    MessageTooLarge,
    ProtocolError,
    encode_chunks,
    encode_message,
    error_response,
    ok_response,
    read_message,
    write_body,
    write_message,
)
from repro.serve.server import MAX_REQUEST_BYTES
from repro.trace.io import std_line
from util_traces import make_random_trace


class TestFraming:
    def test_round_trip(self):
        stream = io.BytesIO()
        write_message(stream, {"op": "ping", "n": 1})
        stream.seek(0)
        assert read_message(stream) == {"op": "ping", "n": 1}

    def test_one_message_per_line(self):
        stream = io.BytesIO()
        write_message(stream, {"op": "a"})
        write_message(stream, {"op": "b"})
        stream.seek(0)
        assert read_message(stream)["op"] == "a"
        assert read_message(stream)["op"] == "b"
        assert read_message(stream) is None

    def test_newlines_in_payloads_stay_framed(self):
        # JSON escapes a string's newlines, so a multi-line field is one frame.
        text = "T1|w(x)|0\nT2|w(x)|1\n"
        stream = io.BytesIO()
        write_message(stream, {"op": "ping", "note": text})
        stream.seek(0)
        assert read_message(stream)["note"] == text

    def test_eof_returns_none(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_blank_lines_are_skipped(self):
        stream = io.BytesIO(b"\n\n" + encode_message({"op": "ping"}))
        assert read_message(stream)["op"] == "ping"

    def test_blank_means_what_strip_meant(self):
        # read_message tests a frame with isspace(), which copies nothing;
        # it used to test ``not text.strip()``.  Both must agree on every
        # code point, alone and with the frame's newline.
        differ = [
            code
            for code in range(0x110000)
            if chr(code).isspace() == bool(chr(code).strip())
            or (chr(code) + "\n").isspace() == bool((chr(code) + "\n").strip())
        ]
        assert differ == []

    @pytest.mark.parametrize(
        "frame",
        [
            b"\n",
            b" \t\r\n",
            "\u3000\u2028\x1c\x85\n".encode(),
            b"\r\n",
            b"  {\"op\": \"ping\"}  \r\n",
            b"\t[1]\n",
            b"null\n",
            b"{nope\n",
            "\ufeff{}\n".encode(),
            b"\xff\xfe\n",
            b" \x00 \n",
            "\u200b\n".encode(),
        ],
    )
    def test_each_frame_reads_as_it_did_with_strip(self, frame):
        def outcome(read):
            stream = io.BytesIO(frame + encode_message({"op": "next"}))
            try:
                return read(stream)
            except ProtocolError as error:
                return f"{type(error).__name__}: {error}"

        def read_with_strip(stream):
            while True:
                text = stream.readline().decode("utf-8")
                if not text.strip():
                    continue
                payload = json.loads(text)
                if not isinstance(payload, dict):
                    raise ProtocolError(
                        f"message must be a JSON object, got {type(payload).__name__}"
                    )
                return payload

        def reference(stream):
            try:
                return read_with_strip(stream)
            except UnicodeDecodeError as error:
                return f"ProtocolError: message is not valid UTF-8: {error}"
            except json.JSONDecodeError as error:
                return f"ProtocolError: message is not valid JSON: {error}"

        assert outcome(read_message) == outcome(reference)

    def test_invalid_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_message(io.BytesIO(b"{nope\n"))

    def test_non_object_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            read_message(io.BytesIO(b"[1, 2]\n"))

    def test_encode_is_compact_single_line(self):
        wire = encode_message({"op": "feed", "lines": ["T1|w(x)"]})
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1

    def test_limit_bounds_the_frame_and_the_bytes_read(self):
        frame = encode_message({"op": "ping"})
        assert read_message(io.BytesIO(frame), limit=len(frame)) == {"op": "ping"}
        with pytest.raises(MessageTooLarge, match="frame limit"):
            read_message(io.BytesIO(frame), limit=len(frame) - 1)
        # An endless line is refused after limit + 1 bytes, not buffered whole.
        stream = io.BytesIO(b"x" * 10_000)
        with pytest.raises(ProtocolError):
            read_message(stream, limit=100)
        assert stream.tell() == 101

    def test_limit_applies_to_each_frame(self):
        frame = encode_message({"op": "ping"})
        stream = io.BytesIO(b"\n\n" + frame + frame)
        # Blank lines are skipped; each frame is measured on its own.
        assert read_message(stream, limit=len(frame)) == {"op": "ping"}
        assert read_message(stream, limit=len(frame)) == {"op": "ping"}
        assert read_message(stream, limit=len(frame)) is None


class TestBody:
    @staticmethod
    def framed(chunks, after=b""):
        stream = io.BytesIO()
        write_body(stream, chunks)
        stream.write(after)
        stream.seek(0)
        return stream

    def test_round_trip_stops_at_the_terminator(self):
        frame = encode_message({"op": "ping"})
        stream = self.framed([b"T1|w(", b"", b"x)\n", b"T2|r(x)\n"], after=frame)
        assert stream.getvalue().startswith(b"5\nT1|w(3\nx)\n8\n")
        body = BodyReader(stream)
        assert body.read() == b"T1|w(x)\nT2|r(x)\n"
        assert body.read(10) == b""
        # The next frame is left for the frame reader.
        assert read_message(stream) == {"op": "ping"}

    def test_an_empty_body_is_its_terminator(self):
        stream = self.framed([])
        assert stream.getvalue() == b"0\n"
        assert BodyReader(stream).read() == b""

    def test_reads_never_exceed_the_callers_buffer(self):
        stream = self.framed([b"x" * 10_000])
        body = BodyReader(stream)
        assert body.read(0) == b"" and stream.tell() == 0
        assert body.read(100) == b"x" * 100
        assert stream.tell() == len(b"10000\n") + 100

    def test_drain_reads_to_the_terminator(self):
        frame = encode_message({"op": "ping"})
        stream = self.framed([b"a" * 70_000, b"b" * 3], after=frame)
        body = BodyReader(stream)
        assert body.read(5) == b"aaaaa"
        body.drain()
        body.drain()
        assert read_message(stream) == {"op": "ping"}

    @pytest.mark.parametrize(
        "wire",
        [b"x\n", b"-1\n", b"+1\n", b" 1\n", b"1 \n", b"1_0\n", b"1\r\n", b"0x1\n",
         b"1" * 19 + b"\n", b"\n", b"3"],
        ids=repr,
    )
    def test_a_malformed_size_line_loses_the_framing(self, wire):
        body = BodyReader(io.BytesIO(wire + b"abc0\n"))
        with pytest.raises(FramingError, match="malformed body chunk size|ended before"):
            body.read()
        # Every later read fails the same way: nothing past it is trusted.
        with pytest.raises(FramingError):
            body.drain()

    @pytest.mark.parametrize("wire", [b"", b"5\nabc", b"3\nabc"])
    def test_a_body_cut_short_loses_the_framing(self, wire):
        with pytest.raises(FramingError, match="ended before its terminator"):
            BodyReader(io.BytesIO(wire)).drain()

    def test_framing_errors_are_protocol_errors(self):
        assert issubclass(MessageTooLarge, FramingError)
        assert issubclass(FramingError, ProtocolError)

    def test_encode_chunks_joins_pieces_up_to_the_chunk_size(self):
        half = BODY_CHUNK_CHARS // 2
        pieces = ["ab"] * (3 * half + 1)
        assert list(encode_chunks(pieces)) == [b"ab" * half] * 3 + [b"ab"]
        assert list(encode_chunks([])) == []
        text = "é\ud800" * 3
        assert b"".join(encode_chunks(text)) == text.encode("utf-8", "surrogatepass")


class TestRequestCap:
    """No frame carries a trace, so frames stay far below the 1 MiB cap."""

    @staticmethod
    def sent_by_submit(text):
        """The frame ``submit_text`` writes, and the stream its body follows in."""
        client = object.__new__(ServeClient)
        client.host, client.port, client.retries = "test", 0, 0
        client._wfile = io.BytesIO()
        client._rfile = io.BytesIO(encode_message({"ok": True}))
        client.submit_text(text, ["hb+tc+detect", "shb+vc+detect"], name="t", tags=["a"])
        stream = client._wfile
        stream.seek(0)
        return stream.readline(), stream

    def test_cap_is_one_mebibyte(self):
        assert MAX_REQUEST_BYTES == 1024 * 1024

    def test_feed_batches_fit_under_the_cap(self):
        trace = make_random_trace(3, num_threads=8, num_variables=50, num_events=2000)
        lines = [std_line(event) for event in trace]
        # The client's default batch, and the largest the test suites send.
        for batch in (64, 400):
            frame = encode_message({"op": "feed", "lines": lines[:batch]})
            assert len(frame) < MAX_REQUEST_BYTES / 100

    def test_submit_frame_stays_small_whatever_the_trace_size(self):
        small, stream = self.sent_by_submit("T1|w(x)\n")
        assert BodyReader(stream).read() == b"T1|w(x)\n"
        text = "T1|w(x)\nT2|r(x)\n" * 100_000
        large, stream = self.sent_by_submit(text)
        assert BodyReader(stream).read() == text.encode("utf-8")
        assert len(small) < 1024
        # The stamped trace context differs; nothing else depends on the text.
        assert len(large) == len(small)

    def test_text_travels_in_bounded_chunks(self):
        text = "T1|w(x)\n" * 50_000
        _, stream = self.sent_by_submit(text)
        sizes = []
        while True:
            size = int(stream.readline())
            if not size:
                break
            sizes.append(size)
            stream.read(size)
        assert sum(sizes) == len(text) and max(sizes) == BODY_CHUNK_CHARS


class TestResponses:
    def test_ok_response(self):
        assert ok_response(digest="d")["ok"] is True
        assert ok_response(digest="d")["digest"] == "d"

    def test_error_response(self):
        response = error_response("boom", op="submit")
        assert response["ok"] is False and response["error"] == "boom"

    def test_protocol_version_constant(self):
        assert PROTOCOL == "repro-serve/3"


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)

    def test_bare_host_defaults_the_port(self):
        assert parse_address("example.test") == ("example.test", DEFAULT_PORT)

    def test_bare_port_defaults_the_host(self):
        assert parse_address(":7000") == ("127.0.0.1", 7000)

    def test_invalid_port_raises(self):
        with pytest.raises(ValueError, match="port must be an integer"):
            parse_address("host:http")


class TestServeFlags:
    @pytest.mark.parametrize("flags", [["--shards", "8"], ["--chaos"]], ids=["shards", "chaos"])
    def test_removed_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["serve", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
