"""Unit tests for the batch chunker and caching parsers of :mod:`repro.trace.io`."""

import gzip
import io

import pytest

from repro.trace import Trace, TraceBuilder
from repro.trace import event as ev
from repro.trace.io import (
    DEFAULT_BATCH_SIZE,
    CsvParser,
    StdParser,
    TraceFormatError,
    dumps_csv,
    dumps_std,
    iter_csv,
    iter_std,
    iter_trace_chunks,
    parse_std_line,
    save_trace,
)


@pytest.fixture
def sample_trace():
    builder = TraceBuilder()
    builder.fork(1, 2).acquire(1, "l").write(1, "x").release(1, "l")
    builder.acquire(2, "l").read(2, "x").release(2, "l").join(1, 2)
    return builder.build()


class TestStdParser:
    def test_matches_parse_std_line_on_every_canonical_line(self, sample_trace):
        parser = StdParser()
        for number, line in enumerate(dumps_std(sample_trace).splitlines(), start=1):
            assert parser.parse(line, number - 1, number) == parse_std_line(line, number - 1, number)

    @pytest.mark.parametrize(
        "line",
        [
            "  T3 | acq( lock ) | somewhere  ",  # whitespace tolerance
            "T1|begin",
            "T1|end",
            "T9|fork(T12)|f.py:3",
            "T9|join(t12)",  # lowercase thread prefix
            "T2|w(a|b)|loc",  # '|' inside a target: regex fallback path
            "# a comment",
            "",
            "T4|r(x)",
        ],
    )
    def test_weird_but_legal_lines_match_the_regex(self, line):
        assert StdParser().parse(line, 5, 1) == parse_std_line(line, 5, 1)

    @pytest.mark.parametrize(
        "line",
        [
            "garbage",
            "T1|frobnicate(x)",
            "T1|w()",
            "T1|fork(xyz)",
            "Tx|w(v)",
            "T1|r",
            "T1|w(x)|",  # empty location field
            "T1|w(x)|foo bar",  # whitespace inside the location field
            "T1|begin|a b",
        ],
    )
    def test_malformed_lines_raise_like_the_regex(self, line):
        with pytest.raises(TraceFormatError):
            parse_std_line(line, 0, 1)  # the regex is the format authority
        with pytest.raises(TraceFormatError):
            StdParser().parse(line, 0, 1)

    def test_repeated_targets_share_one_interned_string(self):
        parser = StdParser()
        first = parser.parse("T1|w(shared_var)|a", 0, 1)
        second = parser.parse("T2|r(shared_var)|b", 1, 2)
        assert first.target is second.target

    def test_cache_does_not_leak_errors_across_lines(self):
        parser = StdParser()
        with pytest.raises(TraceFormatError, match="line 1"):
            parser.parse("T1|w()", 0, 1)
        with pytest.raises(TraceFormatError, match="line 9"):
            parser.parse("T1|w()", 0, 9)


def text_chunks(lines, fmt="std", **kwargs):
    """``iter_trace_chunks`` over in-memory text lines, drained."""
    return list(iter_trace_chunks(io.StringIO("\n".join(lines)), fmt=fmt, **kwargs))


class TestStdBatches:
    def test_batches_concatenate_to_the_event_stream(self, sample_trace):
        lines = dumps_std(sample_trace).splitlines()
        batches = text_chunks(lines, batch_size=3)
        assert [len(batch) for batch in batches[:-1]] == [3] * (len(batches) - 1)
        assert [e for batch in batches for e in batch] == list(iter_std(lines))

    def test_default_batch_size_is_shared_constant(self, sample_trace):
        batches = text_chunks(dumps_std(sample_trace).splitlines())
        assert len(batches) == 1  # trace much smaller than DEFAULT_BATCH_SIZE
        assert DEFAULT_BATCH_SIZE >= 1024

    def test_blank_and_comment_lines_do_not_consume_eids(self):
        lines = ["# header", "", "T1|w(x)|a", "  ", "T2|r(x)|b"]
        (batch,) = text_chunks(lines, batch_size=10)
        assert [event.eid for event in batch] == [0, 1]

    def test_empty_input_yields_no_batches(self):
        assert text_chunks([]) == []

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            text_chunks(["T1|w(x)"], batch_size=0)

    def test_malformed_line_raises_during_its_batch(self):
        lines = ["T1|w(x)|a", "not a line"]
        with pytest.raises(TraceFormatError, match="line 2"):
            text_chunks(lines, batch_size=10)


class TestCsvBatches:
    def test_batches_match_per_event_iterator(self, sample_trace):
        lines = dumps_csv(sample_trace).splitlines()
        batches = text_chunks(lines, fmt="csv", batch_size=3)
        assert [e for batch in batches for e in batch] == list(iter_csv(lines))
        assert [e for batch in batches for e in batch] == list(sample_trace)

    def test_header_only_input_yields_no_batches(self):
        assert text_chunks(["eid,tid,kind,target"], fmt="csv") == []
        assert text_chunks([], fmt="csv") == []

    def test_bad_header_raises(self):
        with pytest.raises(TraceFormatError, match="header"):
            text_chunks(["nope,nope,nope,nope", "0,1,w,x"], fmt="csv")

    def test_column_count_error_carries_line_number(self):
        lines = ["eid,tid,kind,target", "0,1,w,x", "1,2,r"]
        with pytest.raises(TraceFormatError, match="line 3"):
            text_chunks(lines, fmt="csv", batch_size=10)

    def test_parser_interns_repeated_targets(self):
        parser = CsvParser()
        first = parser.parse_row(["0", "1", "w", "var"], 0, 2)
        second = parser.parse_row(["1", "2", "r", "var"], 1, 3)
        assert first.target is second.target
        assert second.kind is ev.OpKind.READ


class TestTraceChunksBatchSize:
    def test_batch_size_kwarg_is_honored(self, tmp_path, sample_trace):
        path = tmp_path / "t.std"
        save_trace(sample_trace, path)
        chunks = list(iter_trace_chunks(path, batch_size=2))
        assert [len(chunk) for chunk in chunks[:-1]] == [2] * (len(chunks) - 1)
        assert [e for chunk in chunks for e in chunk] == list(sample_trace)

    def test_gz_roundtrip_through_buffered_reader(self, tmp_path, sample_trace):
        path = tmp_path / "t.std.gz"
        save_trace(sample_trace, path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert handle.read() == dumps_std(sample_trace)
        chunks = list(iter_trace_chunks(path, batch_size=4))
        assert [e for chunk in chunks for e in chunk] == list(sample_trace)

    def test_csv_gz_chunks(self, tmp_path, sample_trace):
        path = tmp_path / "t.csv.gz"
        save_trace(sample_trace, path, fmt="csv")
        chunks = list(iter_trace_chunks(path, batch_size=3))
        assert Trace([e for chunk in chunks for e in chunk]) == sample_trace
