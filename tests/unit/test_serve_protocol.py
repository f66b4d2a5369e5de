"""Unit tests for the serve line protocol framing, address parsing and flags."""

import io
import json

import pytest

from repro.cli import main as repro_main
from repro.serve.client import ServeClient, parse_address
from repro.serve.protocol import (
    DEFAULT_PORT,
    PROTOCOL,
    MessageTooLarge,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    read_message,
    write_message,
)
from repro.serve.server import MAX_REQUEST_BYTES


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
        # Whole-trace submission ships multi-line trace text in one message.
        text = "T1|w(x)|0\nT2|w(x)|1\n"
        stream = io.BytesIO()
        write_message(stream, {"op": "submit", "text": text})
        stream.seek(0)
        assert read_message(stream)["text"] == text

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


class TestRequestCap:
    def test_cap_fits_the_largest_unstreamed_submission(self):
        # submit_file sends up to STREAM_THRESHOLD_BYTES of STD text in one
        # frame.  JSON escapes only the newline of each STD line, so twice
        # the threshold leaves room for the escapes and the envelope.
        threshold = ServeClient.STREAM_THRESHOLD_BYTES
        assert MAX_REQUEST_BYTES == 2 * threshold
        text = "\n".join(["T1|r(x)"] * 1000)
        frame = encode_message(
            {"op": "submit", "text": text, "fmt": "std", "specs": ["hb+tc"], "tags": []}
        )
        assert len(frame) / len(text) < MAX_REQUEST_BYTES / threshold


class TestResponses:
    def test_ok_response(self):
        assert ok_response(digest="d")["ok"] is True
        assert ok_response(digest="d")["digest"] == "d"

    def test_error_response(self):
        response = error_response("boom", op="submit")
        assert response["ok"] is False and response["error"] == "boom"

    def test_protocol_version_constant(self):
        assert PROTOCOL == "repro-serve/2"


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
