"""Unit tests for the detectors and the high-level race-detection API."""

import pytest

from repro.analysis import (
    RaceDetector,
    ReversiblePairDetector,
    detect_races,
    find_races,
    has_race,
)
from repro.analysis.result import DetectionSummary, Race
from repro.clocks import ClockContext, TreeClock, VectorClock
from repro.trace import TraceBuilder
from repro.trace import event as ev


def make_clock(entries):
    context = ClockContext(threads=[1, 2, 3, 4])
    clock = VectorClock(context)
    for tid, value in entries.items():
        clock.increment(tid, value)
    return clock


class TestRaceDetectorUnit:
    def test_read_races_with_unordered_write(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_read(ev.read(2, "x", eid=1), make_clock({2: 1}))
        assert detector.summary.race_count == 1

    def test_read_does_not_race_with_ordered_write(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_read(ev.read(2, "x", eid=1), make_clock({1: 1, 2: 1}))
        assert detector.summary.race_count == 0

    def test_write_races_with_unordered_reads(self):
        detector = RaceDetector()
        detector.on_read(ev.read(1, "x", eid=0), make_clock({1: 1}))
        detector.on_read(ev.read(2, "x", eid=1), make_clock({2: 1}))
        detector.on_write(ev.write(3, "x", eid=2), make_clock({3: 1}))
        assert detector.summary.race_count == 2

    def test_write_write_race(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_write(ev.write(2, "x", eid=1), make_clock({2: 1}))
        assert detector.summary.race_count == 1

    def test_same_thread_accesses_never_race(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_write(ev.write(1, "x", eid=1), make_clock({1: 2}))
        detector.on_read(ev.read(1, "x", eid=2), make_clock({1: 3}))
        assert detector.summary.race_count == 0

    def test_different_variables_are_independent(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_write(ev.write(2, "y", eid=1), make_clock({2: 1}))
        assert detector.summary.race_count == 0

    def test_keep_races_false_still_counts(self):
        detector = RaceDetector(keep_races=False)
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_write(ev.write(2, "x", eid=1), make_clock({2: 1}))
        assert detector.summary.race_count == 1
        assert detector.summary.races == []

    def test_race_record_fields(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_write(ev.write(2, "x", eid=7), make_clock({2: 3}))
        race = detector.summary.races[0]
        assert race.variable == "x"
        assert race.prior_tid == 1 and race.prior_local_time == 1
        assert race.event_eid == 7 and race.event_tid == 2
        assert race.event_kind == "w"
        assert "x" in race.pair()

    def test_checks_are_counted(self):
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), make_clock({1: 1}))
        detector.on_read(ev.read(2, "x", eid=1), make_clock({1: 1, 2: 1}))
        assert detector.summary.checks >= 2


class TestRaceDetectorEpochs:
    """The detector's flat ``clk @ tid`` epochs for the last write and reader."""

    def test_write_epoch_is_checked_against_a_tree_clock(self):
        context = ClockContext(threads=[1, 2])
        writer = TreeClock(context, owner=1)
        writer.increment(1, 4)
        reader = TreeClock(context, owner=2)
        reader.increment(2, 1)
        reader.join(writer)
        detector = RaceDetector()
        detector.on_write(ev.write(1, "x", eid=0), writer)
        detector.on_read(ev.read(2, "x", eid=1), reader)
        assert detector.summary.race_count == 0
        # A write the reader has not seen: 5@t1 is past the reader's 4@t1.
        writer.increment(1, 1)
        detector.on_write(ev.write(1, "y", eid=2), writer)
        detector.on_read(ev.read(2, "y", eid=3), reader)
        race = detector.summary.races[0]
        assert (race.prior_tid, race.prior_local_time) == (1, 5)

    def test_thread_ids_zero_and_negative_keep_their_epochs(self):
        # An epoch is absent only while its local time is 0, so thread 0
        # (the zeroed write_tid) and negative ids are tracked like others.
        context = ClockContext(threads=[-1, 0, 1])

        def clock(entries):
            vector = VectorClock(context)
            for tid, value in entries.items():
                vector.increment(tid, value)
            return vector

        detector = RaceDetector()
        detector.on_write(ev.write(0, "x", eid=0), clock({0: 1}))
        detector.on_read(ev.read(-1, "x", eid=1), clock({-1: 1}))
        detector.on_write(ev.write(1, "x", eid=2), clock({1: 1}))
        assert sorted(race.prior_tid for race in detector.summary.races) == [-1, 0, 0]

    def test_reread_by_the_same_thread_advances_its_read_epoch(self):
        detector = RaceDetector()
        detector.on_read(ev.read(1, "x", eid=0), make_clock({1: 1}))
        detector.on_read(ev.read(1, "x", eid=1), make_clock({1: 2}))
        # The writer saw the first read but not the second.
        detector.on_write(ev.write(2, "x", eid=2), make_clock({1: 1, 2: 1}))
        race = detector.summary.races[0]
        assert (race.prior_tid, race.prior_local_time) == (1, 2)
        assert detector.summary.race_count == 1

    def test_write_drops_the_reads_it_was_checked_against(self):
        detector = RaceDetector()
        detector.on_read(ev.read(1, "x", eid=0), make_clock({1: 1}))
        detector.on_read(ev.read(2, "x", eid=1), make_clock({2: 1}))
        detector.on_write(ev.write(3, "x", eid=2), make_clock({1: 1, 2: 1, 3: 1}))
        # Ordered after thread 3's write, thread 1 need not know thread 2's
        # read: the write already ordered it.
        detector.on_write(ev.write(1, "x", eid=3), make_clock({1: 2, 3: 1}))
        assert detector.summary.race_count == 0


class TestReversiblePairDetector:
    def test_unordered_conflicting_writes_are_reversible(self):
        detector = ReversiblePairDetector()
        first = ev.write(1, "x", eid=0)
        detector.on_access(first, make_clock({1: 1}))
        detector.after_access(first, make_clock({1: 1}))
        second = ev.write(2, "x", eid=1)
        detector.on_access(second, make_clock({2: 1}))
        assert detector.summary.race_count == 1

    def test_ordered_conflicting_writes_are_not_reversible(self):
        detector = ReversiblePairDetector()
        first = ev.write(1, "x", eid=0)
        detector.on_access(first, make_clock({1: 1}))
        detector.after_access(first, make_clock({1: 1}))
        second = ev.write(2, "x", eid=1)
        detector.on_access(second, make_clock({1: 1, 2: 1}))
        assert detector.summary.race_count == 0

    def test_read_checks_only_against_last_write(self):
        detector = ReversiblePairDetector()
        read = ev.read(1, "x", eid=0)
        detector.on_access(read, make_clock({1: 1}))
        detector.after_access(read, make_clock({1: 1}))
        second_read = ev.read(2, "x", eid=1)
        detector.on_access(second_read, make_clock({2: 1}))
        assert detector.summary.race_count == 0


class TestDetectionSummary:
    def test_racy_variables_deduplicates(self):
        summary = DetectionSummary()
        for eid in range(3):
            summary.races.append(
                Race(variable="x", prior_tid=1, prior_local_time=1, event_eid=eid, event_tid=2, event_kind="w")
            )
            summary.total_reported += 1
        assert summary.racy_variables == ["x"]
        assert summary.race_count == 3


class TestHighLevelAPI:
    def test_detect_races_hb(self, racy_trace):
        result = detect_races(racy_trace, partial_order="HB")
        assert result.detection.race_count >= 1

    def test_detect_races_shb(self, racy_trace):
        result = detect_races(racy_trace, partial_order="shb")
        assert result.partial_order == "SHB"

    def test_detect_races_rejects_maz(self, racy_trace):
        with pytest.raises(ValueError):
            detect_races(racy_trace, partial_order="MAZ")

    def test_find_races_returns_race_records(self, racy_trace):
        races = find_races(racy_trace)
        assert races and all(isinstance(race, Race) for race in races)

    def test_has_race(self, racy_trace, race_free_trace):
        assert has_race(racy_trace)
        assert not has_race(race_free_trace)

    def test_clock_class_can_be_overridden(self, racy_trace):
        result = detect_races(racy_trace, clock_class=VectorClock)
        assert result.clock_name == "VC"
