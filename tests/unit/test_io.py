"""Unit tests for trace serialization (:mod:`repro.trace.io`)."""

import gzip
import io

import pytest

from repro.trace import Trace, TraceBuilder
from repro.trace import event as ev
from repro.trace.io import (
    TraceFormatError,
    dumps_csv,
    dumps_std,
    infer_format,
    iter_trace_chunks,
    iter_trace_file,
    load_trace,
    loads_csv,
    loads_std,
    parse_std_line,
    save_trace,
    sniff_format,
    std_line,
)


@pytest.fixture
def sample_trace() -> Trace:
    builder = TraceBuilder(name="io-sample")
    builder.write(1, "x").acquire(1, "l1").release(1, "l1")
    builder.fork(1, 2)
    builder.acquire(2, "l1").read(2, "x").release(2, "l1")
    builder.join(1, 2)
    return builder.build()


class TestStdFormat:
    def test_dumps_produces_one_line_per_event(self, sample_trace):
        text = dumps_std(sample_trace)
        assert len(text.strip().splitlines()) == len(sample_trace)

    def test_roundtrip_preserves_events(self, sample_trace):
        restored = loads_std(dumps_std(sample_trace), name="io-sample")
        assert restored == sample_trace
        assert restored.name == "io-sample"

    def test_dumps_format_example(self):
        trace = Trace([ev.write(3, "v")])
        assert dumps_std(trace) == "T3|w(v)|0\n"

    def test_fork_target_uses_thread_syntax(self):
        trace = Trace([ev.fork(1, 2)])
        assert "fork(T2)" in dumps_std(trace)

    def test_loads_ignores_comments_and_blank_lines(self):
        text = "# comment\n\nT1|w(x)|0\n"
        trace = loads_std(text)
        assert len(trace) == 1

    def test_loads_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            loads_std("this is not a trace line")

    def test_loads_rejects_unknown_operation(self):
        with pytest.raises(TraceFormatError):
            loads_std("T1|frobnicate(x)|0")

    def test_loads_rejects_missing_target(self):
        with pytest.raises(TraceFormatError):
            loads_std("T1|w|0")

    def test_loads_rejects_bad_fork_target(self):
        with pytest.raises(TraceFormatError):
            loads_std("T1|fork(banana)|0")

    def test_empty_text_gives_empty_trace(self):
        assert len(loads_std("")) == 0

    def test_begin_end_have_no_target(self):
        trace = Trace([ev.begin(1), ev.end(1)])
        restored = loads_std(dumps_std(trace))
        assert [event.kind for event in restored] == [event.kind for event in trace]


class TestCsvFormat:
    def test_roundtrip(self, sample_trace):
        restored = loads_csv(dumps_csv(sample_trace))
        assert restored == sample_trace

    def test_header_row_present(self, sample_trace):
        assert dumps_csv(sample_trace).splitlines()[0] == "eid,tid,kind,target"

    def test_rejects_wrong_header(self):
        with pytest.raises(TraceFormatError):
            loads_csv("a,b,c,d\n1,2,w,x\n")

    def test_rejects_wrong_column_count(self):
        with pytest.raises(TraceFormatError):
            loads_csv("eid,tid,kind,target\n0,1,w\n")

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceFormatError):
            loads_csv("eid,tid,kind,target\n0,1,zap,x\n")

    def test_empty_text_gives_empty_trace(self):
        assert len(loads_csv("")) == 0

    def test_blank_lines_are_skipped(self):
        text = "eid,tid,kind,target\n0,1,w,x\n\n"
        assert len(loads_csv(text)) == 1


class TestFileHelpers:
    def test_save_and_load_std_path(self, tmp_path, sample_trace):
        path = tmp_path / "trace.std"
        save_trace(sample_trace, path, fmt="std")
        assert load_trace(path, fmt="std") == sample_trace

    def test_save_and_load_csv_path(self, tmp_path, sample_trace):
        path = tmp_path / "trace.csv"
        save_trace(sample_trace, path, fmt="csv")
        assert load_trace(path, fmt="csv") == sample_trace

    def test_save_to_file_object(self, sample_trace):
        buffer = io.StringIO()
        save_trace(sample_trace, buffer, fmt="std")
        buffer.seek(0)
        assert load_trace(buffer, fmt="std") == sample_trace

    def test_unknown_format_raises(self, tmp_path, sample_trace):
        with pytest.raises(ValueError):
            save_trace(sample_trace, tmp_path / "x", fmt="yaml")
        with pytest.raises(ValueError):
            load_trace(io.StringIO(""), fmt="yaml")

    def test_load_assigns_name(self, tmp_path, sample_trace):
        path = tmp_path / "trace.std"
        save_trace(sample_trace, path)
        assert load_trace(path, name="renamed").name == "renamed"


class TestGzipSupport:
    @pytest.mark.parametrize("fmt", ["std", "csv"])
    def test_gz_suffix_roundtrips(self, tmp_path, sample_trace, fmt):
        path = tmp_path / f"trace.{fmt}.gz"
        save_trace(sample_trace, path, fmt=fmt)
        assert load_trace(path, fmt=fmt) == sample_trace

    def test_gz_file_is_actually_compressed(self, tmp_path, sample_trace):
        path = tmp_path / "trace.std.gz"
        save_trace(sample_trace, path, fmt="std")
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert loads_std(handle.read()) == sample_trace
        # A gzip member always starts with the magic bytes 1f 8b.
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_gz_compression_shrinks_repetitive_traces(self, tmp_path):
        builder = TraceBuilder(name="big")
        for index in range(2000):
            builder.write(1 + index % 4, f"x{index % 8}")
        trace = builder.build()
        plain, packed = tmp_path / "t.std", tmp_path / "t.std.gz"
        save_trace(trace, plain)
        save_trace(trace, packed)
        assert packed.stat().st_size < plain.stat().st_size / 5
        assert load_trace(packed) == trace

    def test_plain_paths_are_untouched_by_gzip_handling(self, tmp_path, sample_trace):
        path = tmp_path / "trace.std"
        save_trace(sample_trace, path)
        assert path.read_bytes()[:2] != b"\x1f\x8b"


class TestInferFormat:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("trace.std", "std"),
            ("trace.std.gz", "std"),
            ("trace.csv", "csv"),
            ("trace.csv.gz", "csv"),
            ("trace.gz", "std"),
            ("mystery.bin", "std"),
        ],
    )
    def test_inference_by_suffix_for_unreadable_paths(self, name, expected):
        # The names above don't exist on disk: suffix inference is the
        # fallback when there are no content bytes to sniff.
        assert infer_format(name) == expected


class TestContentSniffing:
    """``infer_format`` trusts magic/content bytes over the file name."""

    def test_colf_magic_wins_over_std_suffix(self, tmp_path, sample_trace):
        path = tmp_path / "misnamed.std"
        save_trace(sample_trace, path, fmt="colf")
        assert infer_format(path) == "colf"
        assert list(iter_trace_file(path)) == list(sample_trace)

    def test_gzip_magic_wins_over_plain_suffix(self, tmp_path, sample_trace):
        path = tmp_path / "actually-gzipped.std"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(dumps_std(sample_trace))
        assert infer_format(path) == "std"
        assert list(iter_trace_file(path)) == list(sample_trace)

    def test_csv_header_wins_over_std_suffix(self, tmp_path, sample_trace):
        path = tmp_path / "actually-csv.std"
        path.write_text(dumps_csv(sample_trace))
        assert infer_format(path) == "csv"
        assert list(iter_trace_file(path)) == list(sample_trace)

    def test_std_content_wins_over_csv_suffix(self, tmp_path, sample_trace):
        path = tmp_path / "actually-std.csv"
        path.write_text(dumps_std(sample_trace))
        assert infer_format(path) == "std"
        assert list(iter_trace_file(path)) == list(sample_trace)

    def test_gzipped_csv_sniffed_through_the_gzip_layer(self, tmp_path, sample_trace):
        path = tmp_path / "mystery.bin"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(dumps_csv(sample_trace))
        assert infer_format(path) == "csv"
        assert list(iter_trace_file(path)) == list(sample_trace)

    def test_gzipped_colf_rejected_cleanly(self, tmp_path, sample_trace):
        buffer = io.BytesIO()
        save_trace(sample_trace, buffer, fmt="colf")
        path = tmp_path / "t.colf.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(buffer.getvalue())
        with pytest.raises(TraceFormatError, match="gzipped colf"):
            infer_format(path)

    def test_sniff_format_on_prefixes(self, sample_trace):
        from repro.trace.colfmt import COLF_MAGIC

        assert sniff_format(COLF_MAGIC + b"rest") == "colf"
        assert sniff_format(dumps_std(sample_trace).encode()) == "std"
        assert sniff_format(dumps_csv(sample_trace).encode()) == "csv"
        assert sniff_format(b"\x1f") is None  # too short to judge
        assert sniff_format(b"") is None

    def test_empty_file_falls_back_to_suffix(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert infer_format(path) == "csv"


class TestStdLine:
    def test_std_line_matches_dumps_std(self, sample_trace):
        lines = [std_line(event) for event in sample_trace]
        assert "\n".join(lines) + "\n" == dumps_std(sample_trace)

    def test_parse_std_line_round_trips(self, sample_trace):
        for event in sample_trace:
            parsed = parse_std_line(std_line(event), eid=event.eid)
            assert parsed == event

    def test_parse_std_line_skips_blanks_and_comments(self):
        assert parse_std_line("", eid=0) is None
        assert parse_std_line("   ", eid=0) is None
        assert parse_std_line("# a comment", eid=0) is None

    def test_parse_std_line_rejects_garbage(self):
        with pytest.raises(TraceFormatError, match="cannot parse"):
            parse_std_line("not a trace line", eid=0, line_number=7)


class TestIterTraceChunks:
    def test_chunks_cover_the_file_in_order(self, tmp_path, sample_trace):
        path = tmp_path / "t.std.gz"
        save_trace(sample_trace, path)
        chunks = list(iter_trace_chunks(path, batch_size=3))
        assert [len(chunk) for chunk in chunks[:-1]] == [3] * (len(chunks) - 1)
        assert len(chunks[-1]) <= 3
        flattened = [event for chunk in chunks for event in chunk]
        assert flattened == list(sample_trace)

    def test_single_chunk_when_larger_than_file(self, tmp_path, sample_trace):
        path = tmp_path / "t.std"
        save_trace(sample_trace, path)
        chunks = list(iter_trace_chunks(path, batch_size=10_000))
        assert len(chunks) == 1 and len(chunks[0]) == len(sample_trace)

    def test_empty_file_yields_no_chunks(self, tmp_path):
        path = tmp_path / "empty.std"
        path.write_text("")
        assert list(iter_trace_chunks(path)) == []

    def test_invalid_chunk_size_rejected(self, tmp_path, sample_trace):
        path = tmp_path / "t.std"
        save_trace(sample_trace, path)
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_trace_chunks(path, batch_size=0))
