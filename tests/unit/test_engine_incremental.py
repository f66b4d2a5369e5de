"""Unit tests for the incremental ``begin()/feed()/finish()`` engine API."""

import pytest

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.clocks import TreeClock, VectorClock
from repro.trace import TraceBuilder

ALL_ANALYSES = [HBAnalysis, SHBAnalysis, MAZAnalysis]
ALL_CLOCKS = [TreeClock, VectorClock]


def mixed_trace():
    builder = TraceBuilder(name="mixed")
    builder.fork(1, 2).fork(1, 3)
    builder.write(1, "x")
    builder.acquire(1, "l").write(1, "y").release(1, "l")
    builder.acquire(2, "l").read(2, "y").release(2, "l")
    builder.write(2, "x")
    builder.read(3, "y").write(3, "z")
    builder.join(1, 2).join(1, 3)
    builder.read(1, "z")
    return builder.build()


@pytest.mark.parametrize("analysis_class", ALL_ANALYSES)
@pytest.mark.parametrize("clock_class", ALL_CLOCKS)
class TestFeedMatchesRun:
    def test_timestamps_and_detection_match(self, analysis_class, clock_class):
        trace = mixed_trace()
        whole = analysis_class(clock_class, capture_timestamps=True, detect=True).run(trace)

        incremental = analysis_class(clock_class, capture_timestamps=True, detect=True)
        incremental.begin(threads=trace.threads, trace_name=trace.name)
        for event in trace:
            incremental.feed(event)
        result = incremental.finish()

        assert result.timestamps == whole.timestamps
        assert result.detection.race_count == whole.detection.race_count
        assert [race.pair() for race in result.detection.races] == [
            race.pair() for race in whole.detection.races
        ]
        assert result.num_events == whole.num_events == len(trace)
        assert result.num_threads == whole.num_threads
        assert result.trace_name == trace.name

    def test_work_counters_match_with_preregistered_threads(self, analysis_class, clock_class):
        trace = mixed_trace()
        whole = analysis_class(clock_class, count_work=True).run(trace)

        incremental = analysis_class(clock_class, count_work=True)
        incremental.begin(threads=trace.threads)
        for event in trace:
            incremental.feed(event)
        result = incremental.finish()

        assert result.work.entries_processed == whole.work.entries_processed
        assert result.work.entries_updated == whole.work.entries_updated
        assert result.work.joins == whole.work.joins
        assert result.work.copies == whole.work.copies

    def test_dynamic_thread_universe_gives_same_analysis(self, analysis_class, clock_class):
        """Feeding with an empty initial universe must not change the outcome.

        This is the online-capture configuration: thread ids only become
        known as their events (or forks) stream in, and vector clocks must
        grow their dense arrays on the fly.
        """
        trace = mixed_trace()
        whole = analysis_class(clock_class, capture_timestamps=True, detect=True).run(trace)

        incremental = analysis_class(clock_class, capture_timestamps=True, detect=True)
        incremental.begin()  # no threads known upfront
        for event in trace:
            incremental.feed(event)
        result = incremental.finish()

        assert result.timestamps == whole.timestamps
        assert result.detection.race_count == whole.detection.race_count
        assert result.num_threads == whole.num_threads


class TestIncrementalProtocol:
    def test_feed_before_begin_raises(self):
        analysis = HBAnalysis(TreeClock)
        with pytest.raises(RuntimeError):
            analysis.feed(mixed_trace()[0])

    def test_finish_before_begin_raises(self):
        with pytest.raises(RuntimeError):
            HBAnalysis(TreeClock).finish()

    def test_feed_after_finish_raises_until_the_next_begin(self):
        trace = mixed_trace()
        analysis = HBAnalysis(TreeClock, detect=True)
        analysis.begin()
        analysis.feed(trace[0])
        analysis.finish()
        with pytest.raises(RuntimeError, match="after finish"):
            analysis.feed(trace[1])
        analysis.begin()
        analysis.feed(trace[0])
        assert analysis.finish().num_events == 1

    def test_run_is_reusable_after_incremental_use(self):
        trace = mixed_trace()
        analysis = HBAnalysis(TreeClock, detect=True)
        analysis.begin()
        analysis.feed(trace[0])
        # A later whole-trace run resets all incremental state.
        result = analysis.run(trace)
        assert result.num_events == len(trace)

    def test_on_race_streams_races_as_fed(self):
        trace = (
            TraceBuilder(name="racy")
            .write(1, "x")
            .sync(1, "l")
            .sync(2, "m")
            .write(2, "x")
            .build()
        )
        seen = []
        analysis = HBAnalysis(TreeClock, detect=True, on_race=seen.append)
        analysis.begin(threads=trace.threads)
        for event in trace:
            analysis.feed(event)
            if event.eid < len(trace) - 1:
                assert seen == []  # the race fires exactly at the second access
        result = analysis.finish()
        assert len(seen) == 1
        assert seen[0].variable == "x"
        assert result.detection.race_count == 1

    def test_on_race_fires_even_when_races_are_not_kept(self):
        trace = TraceBuilder().write(1, "x").sync(1, "l").sync(2, "m").write(2, "x").build()
        seen = []
        analysis = SHBAnalysis(VectorClock, detect=True, keep_races=False, on_race=seen.append)
        analysis.run(trace)
        assert len(seen) == 1

    def test_locate_attaches_location_to_races(self):
        trace = TraceBuilder().write(1, "x").sync(1, "l").sync(2, "m").write(2, "x").build()
        analysis = HBAnalysis(
            TreeClock, detect=True, locate=lambda event: f"prog.py:{event.eid}"
        )
        result = analysis.run(trace)
        (race,) = result.detection.races
        assert race.location == f"prog.py:{race.event_eid}"
        assert f"at prog.py:{race.event_eid}" in race.pair()
