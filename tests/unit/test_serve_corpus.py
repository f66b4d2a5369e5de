"""Unit tests for the content-addressed trace corpus (:mod:`repro.serve.corpus`)."""

import hashlib
import io
import json
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.gen.scenarios import SCENARIOS
from repro.trace import Trace, TraceBuilder
from repro.trace.io import dumps_std, save_trace
from repro.serve.corpus import INDEX_SCHEMA, MAX_LINE_BYTES, CorpusError, TraceCorpus
from repro.serve.protocol import BodyReader, encode_message, write_body
from repro.serve.server import ServeHandler


@pytest.fixture
def sample_trace() -> Trace:
    builder = TraceBuilder(name="corpus-sample")
    builder.write(1, "x").acquire(1, "l").write(1, "y").release(1, "l")
    builder.acquire(2, "l").read(2, "y").release(2, "l").write(2, "x")
    return builder.build()


class TestIngest:
    def test_ingest_trace_records_stats(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest(sample_trace, tags=("unit",))
        assert created
        assert entry.name == "corpus-sample"
        assert entry.events == len(sample_trace)
        assert entry.threads == 2
        assert entry.locks == 1
        assert entry.variables == 2
        assert entry.sync_events == 4
        assert entry.tags == ("unit",)
        assert len(corpus) == 1

    def test_stored_file_round_trips(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        restored = corpus.load(entry.digest)
        assert list(restored) == list(sample_trace)
        assert restored.name == "corpus-sample"

    def test_open_source_streams_the_stored_trace(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        source = corpus.open_source(entry.digest)
        assert list(source.events()) == list(sample_trace)
        assert source.events_emitted == len(sample_trace)

    def test_ingest_from_file_path(self, tmp_path, sample_trace):
        path = tmp_path / "t.std.gz"
        save_trace(sample_trace, path, fmt="std")
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest(path)
        assert created and entry.events == len(sample_trace)
        assert entry.name == "t.std.gz"


class TestContentAddressing:
    def test_duplicate_submission_dedupes_to_one_entry(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        first, created_first = corpus.ingest(sample_trace)
        second, created_second = corpus.ingest(sample_trace)
        assert created_first and not created_second
        assert first.digest == second.digest
        assert len(corpus) == 1
        stored = list(corpus.traces_dir.glob("*.colf"))
        assert len(stored) == 1

    def test_digest_is_format_independent(self, tmp_path, sample_trace):
        std_path = tmp_path / "t.std"
        csv_path = tmp_path / "t.csv.gz"
        save_trace(sample_trace, std_path, fmt="std")
        save_trace(sample_trace, csv_path, fmt="csv")
        corpus = TraceCorpus(tmp_path / "corpus")
        from_std, _ = corpus.ingest(std_path)
        from_csv, created = corpus.ingest(csv_path)
        assert from_std.digest == from_csv.digest
        assert not created
        assert len(corpus) == 1

    def test_dedupe_merges_tags(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace, tags=("a",))
        entry, _ = corpus.ingest(sample_trace, tags=("b",))
        assert entry.tags == ("a", "b")

    def test_different_traces_get_different_digests(self, tmp_path, sample_trace):
        other = TraceBuilder(name="other").write(1, "z").build()
        corpus = TraceCorpus(tmp_path / "corpus")
        first, _ = corpus.ingest(sample_trace)
        second, _ = corpus.ingest(other)
        assert first.digest != second.digest
        assert len(corpus) == 2


class TestPinnedDigest:
    """Digests are content addresses persisted in every corpus: pin one."""

    DIGEST = "6c0e8a2d0ddc51afb955cab752e99772ea4f042fde47280ddbd279aa3f148d6b"

    def test_digest_and_stats_of_a_fixed_trace(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        assert entry.digest == self.DIGEST
        assert (entry.events, entry.threads, entry.locks, entry.variables) == (8, 2, 1, 2)
        assert entry.sync_events == 4

    def test_digest_is_the_sha256_of_the_std_text(self, tmp_path, sample_trace):
        text = (
            "T1|w(x)|0\nT1|acq(l)|1\nT1|w(y)|2\nT1|rel(l)|3\n"
            "T2|acq(l)|4\nT2|r(y)|5\nT2|rel(l)|6\nT2|w(x)|7\n"
        )
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGEST
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest_stream(io.BytesIO(text.encode("utf-8")))
        assert created and entry.digest == self.DIGEST


class TestSubmittedText:
    """The ``submit`` op splits trace text into lines as a file read does."""

    NEXT_FRAME = encode_message({"op": "ping"})

    @classmethod
    def answer(cls, corpus, body, **request):
        """``_op_submit``'s answer to ``request`` with ``body`` after it.

        Whatever the answer, the handler must have read the body to its
        terminator and no further: the next frame is the next thing read.
        """
        handler = object.__new__(ServeHandler)
        handler.server = SimpleNamespace(
            corpus=corpus,
            scheduler=SimpleNamespace(submit=lambda digest, specs, force: ([], [], [])),
        )
        handler.rfile = io.BytesIO()
        write_body(handler.rfile, body)
        handler.rfile.write(cls.NEXT_FRAME)
        handler.rfile.seek(0)
        try:
            return handler._op_submit({"op": "submit", "specs": ["hb+tc"], **request})
        finally:
            assert handler.rfile.read() == cls.NEXT_FRAME

    @classmethod
    def submit(cls, corpus, text, fmt="std"):
        data = text.encode("utf-8", "surrogatepass")
        chunks = [data[at : at + 7] for at in range(0, len(data), 7)]
        response = cls.answer(corpus, chunks, fmt=fmt)
        assert response["ok"], response
        return response

    # \x0b, \x1c, \x85 and \u2028 end a line for str.splitlines() but not
    # for a file read, so a variable may contain them.
    STD_TEXT = "T1|w(a\x0bb)\r\nT2|r(c\x1cd)\rT1|w(e\x85f)\nT2|w(g\u2028h)\n"

    def test_std_submit_digest_equals_file_digest(self, tmp_path):
        path = tmp_path / "odd.std"
        path.write_text(self.STD_TEXT, encoding="utf-8", newline="")
        corpus = TraceCorpus(tmp_path / "corpus")
        from_file, _ = corpus.ingest(path)
        assert from_file.events == 4 and from_file.variables == 4
        response = self.submit(corpus, self.STD_TEXT)
        assert response["digest"] == from_file.digest
        assert response["created"] is False

    def test_csv_submit_digest_equals_file_digest(self, tmp_path):
        text = "eid,tid,kind,target\r\n0,1,w,a\x85b\r\n1,2,r,c\u2028d\n2,1,w,x\r"
        path = tmp_path / "odd.csv"
        path.write_text(text, encoding="utf-8", newline="")
        corpus = TraceCorpus(tmp_path / "corpus")
        from_file, _ = corpus.ingest(path)
        assert from_file.events == 3
        assert self.submit(corpus, text, fmt="csv")["digest"] == from_file.digest

    def test_unknown_text_format_rejected(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(ValueError, match="unknown trace format"):
            corpus.ingest_stream(io.BytesIO(b"T1|w(x)\n"), fmt="colf")

    @pytest.mark.parametrize(
        "request_fields, body",
        [
            ({"fmt": "colf"}, [b"T1|w(x)\n"]),
            ({"specs": []}, [b"T1|w(x)\n"]),
            ({"specs": ["hb+nope"]}, [b"T1|w(x)\n"]),
            ({}, [b"T1|w(x)\nT1|bogus\n", b"T2|w(x)\n" * 100]),
            ({}, [b"T1|w(x)\nT1|w(\xff)\n", b"T2|w(x)\n" * 100]),
            ({"fmt": "csv"}, [b"eid,tid\n", b"0,1\n" * 100]),
        ],
        ids=["format", "no-specs", "bad-spec", "bad-line", "bad-utf8", "bad-csv"],
    )
    def test_refused_submit_reads_its_body_to_the_end(self, tmp_path, request_fields, body):
        corpus = TraceCorpus(tmp_path / "corpus")
        try:
            response = self.answer(corpus, body, **request_fields)
        except ValueError:  # raised errors are the handler loop's to answer
            pass
        else:
            assert not response["ok"]
        assert len(corpus) == 0
        assert list(corpus.traces_dir.iterdir()) == []

    def test_lines_ended_by_carriage_returns_alone_pass_the_line_bound(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        text = "T1|w(x)\n" * 140_000  # 1.1 MB, more than MAX_LINE_BYTES
        entry, _ = corpus.ingest_stream(io.BytesIO(text.replace("\n", "\r").encode("utf-8")))
        assert entry.events == 140_000
        assert not corpus.ingest_stream(io.BytesIO(text.encode("utf-8")))[1]

    def test_a_version_two_submit_is_refused_without_a_body(self, tmp_path):
        handler = object.__new__(ServeHandler)
        handler.rfile = io.BytesIO(self.NEXT_FRAME)
        response = handler._op_submit({"op": "submit", "text": "T1|w(x)\n", "specs": ["hb+tc"]})
        assert not response["ok"] and "chunked body" in response["error"]
        assert handler.rfile.read() == self.NEXT_FRAME


class TestStaleIngestFiles:
    def test_opening_the_corpus_deletes_leftover_ingest_files(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        leftovers = [
            corpus.traces_dir / ".ingest-4242-140000-0.tmp.colf",
            corpus.traces_dir / ".ingest-4242-140000-1.tmp.colf",
        ]
        for path in leftovers:
            path.write_bytes(b"half a colf segment")
        unrelated = corpus.traces_dir / "notes.tmp"
        unrelated.write_bytes(b"kept")
        reopened = TraceCorpus(tmp_path / "corpus")
        assert sorted(path.name for path in reopened.traces_dir.iterdir()) == sorted(
            [entry.filename, "notes.tmp"]
        )
        assert reopened.trace_path(entry.digest).read_bytes() == corpus.trace_path(
            entry.digest
        ).read_bytes()


class TestStreamedIngestMemory:
    """A submit body streams into the ingest: its size does not show in memory."""

    #: The shape of served-corpus's large trace: 40 threads, 100k events.
    TRACE = dumps_std(SCENARIOS["fifty_locks_skewed"](40, 100_000, 0)).encode("utf-8")

    @staticmethod
    def traced_ingest(tmp_path, chunks):
        """``ingest_stream`` of ``chunks`` as one body: its outcome and tracemalloc's peak."""
        stream = io.BytesIO()
        write_body(stream, chunks)
        stream.seek(0)
        corpus = TraceCorpus(tmp_path / f"corpus-{len(list(tmp_path.iterdir()))}")
        tracemalloc.start()
        try:
            with BodyReader(stream) as body:
                try:
                    outcome = corpus.ingest_stream(body)[0]
                except CorpusError as error:
                    outcome = error
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return outcome, peak

    def test_four_times_the_events_move_the_peak_by_under_a_quarter_megabyte(self, tmp_path):
        entry, small = self.traced_ingest(tmp_path, [self.TRACE])
        assert entry.events == 100_000
        entry, large = self.traced_ingest(tmp_path, [self.TRACE] * 4)
        assert entry.events == 400_000
        assert large - small < 0.25e6, (small, large)

    def test_a_line_without_end_is_refused_at_the_line_bound(self, tmp_path):
        # 16 MiB and no line break: refused after MAX_LINE_BYTES, not held
        # whole (the text layer would keep reading until a line break).
        # The peak stays below the 100k-event TRACE's (2.25 MB).
        error, peak = self.traced_ingest(tmp_path, [b"T1|w(x)\n"] + [b"x" * (1 << 16)] * 256)
        assert isinstance(error, CorpusError)
        assert f"a line is longer than {MAX_LINE_BYTES} bytes" in str(error)
        assert peak < 2 * MAX_LINE_BYTES, peak
        assert list((tmp_path / "corpus-0" / "traces").iterdir()) == []


class TestEdgeCases:
    def test_corrupt_gz_rejected_with_clean_error(self, tmp_path):
        bad = tmp_path / "bad.std.gz"
        bad.write_bytes(b"this is not gzip data")
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="cannot ingest trace"):
            corpus.ingest(bad)
        assert len(corpus) == 0
        # no temp debris left behind
        assert list(corpus.traces_dir.iterdir()) == []

    def test_truncated_gz_rejected_with_clean_error(self, tmp_path, sample_trace):
        path = tmp_path / "t.std.gz"
        save_trace(sample_trace, path, fmt="std")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # chop the gzip stream
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="cannot ingest trace"):
            corpus.ingest(path)
        assert len(corpus) == 0

    def test_malformed_trace_lines_rejected(self, tmp_path):
        bad = tmp_path / "bad.std"
        bad.write_text("T1|w(x)\nnot a trace line\n")
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="cannot ingest trace"):
            corpus.ingest(bad)
        assert len(corpus) == 0

    def test_empty_trace_is_handled(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, created = corpus.ingest(Trace([], name="empty"))
        assert created
        assert entry.events == 0 and entry.threads == 0
        assert entry.sync_fraction == 0.0
        assert list(corpus.open_source(entry.digest).events()) == []

    def test_unknown_digest_raises(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="no trace with digest"):
            corpus.get("feedfacedeadbeef")


class TestIndex:
    def test_index_persists_across_reopen(self, tmp_path, sample_trace):
        first = TraceCorpus(tmp_path / "corpus")
        entry, _ = first.ingest(sample_trace, tags=("kept",))
        reopened = TraceCorpus(tmp_path / "corpus")
        assert len(reopened) == 1
        restored = reopened.get(entry.digest)
        assert restored.tags == ("kept",)
        assert restored.events == entry.events

    def test_index_schema_is_versioned(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace)
        payload = json.loads(corpus.index_path.read_text())
        assert payload["schema"] == INDEX_SCHEMA

    def test_unsupported_index_schema_rejected(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "index.json").write_text(json.dumps({"schema": "bogus/9", "traces": {}}))
        with pytest.raises(CorpusError, match="unsupported corpus index schema"):
            TraceCorpus(root)

    def test_tag_queries(self, tmp_path, sample_trace):
        other = TraceBuilder(name="other").write(1, "z").build()
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace, tags=("captured", "ci"))
        corpus.ingest(other, tags=("synthetic",))
        assert [e.name for e in corpus.entries(tag="captured")] == ["corpus-sample"]
        assert [e.name for e in corpus.entries(tag="synthetic")] == ["other"]
        assert len(corpus.entries()) == 2

    def test_remove_deletes_file_and_entry(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(sample_trace)
        path = corpus.trace_path(entry.digest)
        assert path.exists()
        corpus.remove(entry.digest)
        assert not path.exists()
        assert len(corpus) == 0
        assert len(TraceCorpus(tmp_path / "corpus")) == 0

    def test_summary_totals(self, tmp_path, sample_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.ingest(sample_trace)
        summary = corpus.summary()
        assert summary["traces"] == 1
        assert summary["events"] == len(sample_trace)
