"""Unit tests for the batched source surface (``event_batches``) and
``Session.feed_batch`` plumbing."""

import pytest

from repro.api import Session
from repro.api.sources import (
    DEFAULT_BATCH_SIZE,
    FileSource,
    GeneratorSource,
    TraceSource,
    iter_event_batches,
)
from repro.trace import TraceBuilder, save_trace


@pytest.fixture
def small_trace():
    builder = TraceBuilder(name="batchy")
    for index in range(10):
        builder.write(1 + index % 2, f"x{index % 3}")
    return builder.build()


class _MinimalSource:
    """A three-method source with no native ``event_batches``."""

    def __init__(self, trace):
        self._trace = trace
        self.name = "minimal"
        self.events_emitted = 0

    def threads(self):
        return None

    def events(self):
        for event in self._trace:
            self.events_emitted += 1
            yield event


class TestIterEventBatches:
    def test_trace_source_batches_natively(self, small_trace):
        source = TraceSource(small_trace)
        batches = list(iter_event_batches(source, batch_size=4))
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert [e for batch in batches for e in batch] == list(small_trace)
        assert source.events_emitted == len(small_trace)  # counted once

    def test_fallback_adapter_chunks_plain_sources(self, small_trace):
        source = _MinimalSource(small_trace)
        batches = list(iter_event_batches(source, batch_size=3))
        assert [len(batch) for batch in batches] == [3, 3, 3, 1]
        assert [e for batch in batches for e in batch] == list(small_trace)
        assert source.events_emitted == len(small_trace)

    def test_file_source_batches_from_disk(self, tmp_path, small_trace):
        path = tmp_path / "t.std.gz"
        save_trace(small_trace, path)
        source = FileSource(str(path))
        batches = list(iter_event_batches(source, batch_size=4))
        assert [e for batch in batches for e in batch] == list(small_trace)
        assert source.events_emitted == len(small_trace)

    def test_generator_source_batches_the_materialized_trace(self, small_trace):
        source = GeneratorSource(lambda: small_trace, name="gen")
        batches = list(iter_event_batches(source, batch_size=6))
        assert [len(batch) for batch in batches] == [6, 4]
        assert source.events_emitted == len(small_trace)

    def test_invalid_batch_size_rejected(self, small_trace):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_event_batches(TraceSource(small_trace), batch_size=0))

    def test_default_batch_size_matches_io_constant(self):
        from repro.trace.io import DEFAULT_BATCH_SIZE as IO_DEFAULT

        assert DEFAULT_BATCH_SIZE == IO_DEFAULT


class TestSessionFeedBatch:
    def test_multi_spec_feed_batch_attributes_batch_times(self, small_trace):
        session = Session(["hb+tc", "hb+vc"])
        session.begin(threads=small_trace.threads, name=small_trace.name)
        events = list(small_trace)
        session.feed_batch(events[:6])
        session.feed_batch(events[6:])
        result = session.finish()
        assert result.num_events == len(small_trace)
        for _, analysis_result in result:
            assert analysis_result.num_events == len(small_trace)
            assert analysis_result.elapsed_ns > 0

    def test_feed_is_a_singleton_batch(self, small_trace):
        session = Session(["hb+tc+detect", "hb+vc+detect"])
        session.begin(threads=small_trace.threads, name=small_trace.name)
        for event in small_trace:
            session.feed(event)
        result = session.finish()
        assert result.num_events == len(small_trace)

    def test_run_accepts_batch_size(self, small_trace):
        result = Session(["shb+tc+detect"]).run(small_trace, batch_size=3)
        assert result.num_events == len(small_trace)

    def test_feed_batch_before_begin_raises(self):
        with pytest.raises(RuntimeError, match="begin"):
            Session(["hb+tc"]).feed_batch([])

    @pytest.mark.parametrize("batch_size", [0, -7])
    def test_engine_run_rejects_invalid_batch_size(self, small_trace, batch_size):
        from repro.analysis import HBAnalysis

        with pytest.raises(ValueError, match="batch_size"):
            HBAnalysis().run(small_trace, batch_size=batch_size)
