"""Differential check: ``feed_batch`` ≡ per-event ``feed``, exactly.

The batched pipeline is only allowed to change *cost*, never results:
feeding a trace in any batch partition — one huge batch, ragged odd
sizes, one event at a time — must produce bit-identical output (the
batch-transparency invariant).  This module drives the full order×clock
spec matrix both ways over random well-formed traces and compares every
observable: per-event vector timestamps, race records in order, check
counts, work counters, event/thread counts.  A new per-event rule that
peeks across batch boundaries (or caches per-feed state) fails here.
"""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.analysis.ablations import HBDeepCopyAnalysis, SHBDeepCopyAnalysis
from repro.analysis.engine import PartialOrderAnalysis
from repro.api import Session
from repro.api.sources import DEFAULT_BATCH_SIZE, ColfSource
from repro.clocks import TreeClock, VectorClock
from repro.trace import ColfReader, ColumnBatch, Event, OpKind, Trace, TraceBuilder, write_colf
from util_traces import make_random_trace

ALL_ANALYSES = [HBAnalysis, SHBAnalysis, MAZAnalysis]
ALL_CLOCKS = [TreeClock, VectorClock]

#: Every spec combination of the evaluation matrix, as session spec keys.
SPEC_MATRIX = [
    f"{order}+{clock}{detect}"
    for order in ("hb", "shb", "maz")
    for clock in ("tc", "vc")
    for detect in ("", "+detect")
]


def _partition(events, sizes):
    """Split ``events`` into batches cycling through ``sizes``."""
    batches = []
    index = 0
    cursor = 0
    while cursor < len(events):
        size = sizes[index % len(sizes)]
        batches.append(list(events[cursor : cursor + size]))
        cursor += size
        index += 1
    return batches


def _run_per_event(analysis_class, clock_class, trace):
    analysis = analysis_class(clock_class, capture_timestamps=True, detect=True)
    analysis.begin(threads=trace.threads, trace_name=trace.name)
    for event in trace:
        analysis.feed(event)
    return analysis.finish()


def _run_batched(analysis_class, clock_class, trace, sizes):
    analysis = analysis_class(clock_class, capture_timestamps=True, detect=True)
    analysis.begin(threads=trace.threads, trace_name=trace.name)
    for batch in _partition(list(trace), sizes):
        analysis.feed_batch(batch)
    return analysis.finish()


def _assert_results_match(batched, reference):
    assert batched.timestamps == reference.timestamps
    assert batched.num_events == reference.num_events
    assert batched.num_threads == reference.num_threads
    assert batched.detection.checks == reference.detection.checks
    assert batched.detection.race_count == reference.detection.race_count
    assert [race.pair() for race in batched.detection.races] == [
        race.pair() for race in reference.detection.races
    ]


class TestEngineBatchTransparency:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4),
    )
    def test_every_analysis_matches_across_ragged_partitions(self, seed, sizes):
        trace = make_random_trace(seed, num_events=150, include_fork_join=bool(seed % 2))
        for analysis_class in ALL_ANALYSES:
            for clock_class in ALL_CLOCKS:
                reference = _run_per_event(analysis_class, clock_class, trace)
                batched = _run_batched(analysis_class, clock_class, trace, sizes)
                _assert_results_match(batched, reference)

    def test_single_batch_and_singletons_agree(self):
        trace = make_random_trace(7, num_events=120)
        for analysis_class in ALL_ANALYSES:
            for clock_class in ALL_CLOCKS:
                reference = _run_per_event(analysis_class, clock_class, trace)
                whole = _run_batched(analysis_class, clock_class, trace, [len(trace)])
                singles = _run_batched(analysis_class, clock_class, trace, [1])
                _assert_results_match(whole, reference)
                _assert_results_match(singles, reference)

    def test_work_counters_match(self):
        trace = make_random_trace(11, num_events=150)
        for analysis_class in ALL_ANALYSES:
            for clock_class in ALL_CLOCKS:
                reference = analysis_class(clock_class, count_work=True)
                reference.begin(threads=trace.threads)
                for event in trace:
                    reference.feed(event)
                per_event = reference.finish()

                batched = analysis_class(clock_class, count_work=True)
                batched.begin(threads=trace.threads)
                for batch in _partition(list(trace), [13]):
                    batched.feed_batch(batch)
                result = batched.finish()

                assert result.work.entries_processed == per_event.work.entries_processed
                assert result.work.entries_updated == per_event.work.entries_updated
                assert result.work.joins == per_event.work.joins
                assert result.work.copies == per_event.work.copies

    def test_empty_batches_are_no_ops(self):
        trace = make_random_trace(3, num_events=60)
        for analysis_class in ALL_ANALYSES:
            reference = _run_per_event(analysis_class, TreeClock, trace)
            analysis = analysis_class(TreeClock, capture_timestamps=True, detect=True)
            analysis.begin(threads=trace.threads, trace_name=trace.name)
            analysis.feed_batch([])
            for batch in _partition(list(trace), [17]):
                analysis.feed_batch(batch)
                analysis.feed_batch([])
            _assert_results_match(analysis.finish(), reference)


class TestSessionBatchTransparency:
    """The same invariant one layer up: ``Session.run`` (batched) vs a
    hand-rolled per-event session walk, across the whole spec matrix."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batched_run_matches_per_event_session(self, seed):
        trace = make_random_trace(seed, num_events=150)
        batched = Session(SPEC_MATRIX).run(trace)

        per_event = Session(SPEC_MATRIX)
        per_event.begin(threads=trace.threads, name=trace.name)
        for event in trace:
            per_event.feed(event)
        reference = per_event.finish()

        assert batched.num_events == reference.num_events == len(trace)
        for key in SPEC_MATRIX:
            left, right = batched[key], reference[key]
            assert left.num_events == right.num_events
            assert left.num_threads == right.num_threads
            if left.detection is not None or right.detection is not None:
                assert left.detection.checks == right.detection.checks
                assert [race.pair() for race in left.detection.races] == [
                    race.pair() for race in right.detection.races
                ]

    def test_session_run_with_tiny_batch_size_matches_default(self):
        trace = make_random_trace(42, num_events=120)
        default = Session(SPEC_MATRIX).run(trace)
        ragged = Session(SPEC_MATRIX).run(trace, batch_size=7)
        assert default.num_events == ragged.num_events
        for key in SPEC_MATRIX:
            left, right = default[key], ragged[key]
            if left.detection is not None:
                assert left.detection.race_count == right.detection.race_count
                assert [race.pair() for race in left.detection.races] == [
                    race.pair() for race in right.detection.races
                ]

    def test_empty_trace(self):
        result = Session(SPEC_MATRIX).run(Trace([], name="empty"))
        assert result.num_events == 0
        for key in SPEC_MATRIX:
            assert result[key].num_events == 0

    def test_feed_batch_before_begin_raises(self):
        session = Session(["hb+tc"])
        try:
            session.feed_batch([])
        except RuntimeError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("feed_batch before begin must raise")


# -- batch shapes ----------------------------------------------------------------------


class HandleEventHB(PartialOrderAnalysis):
    """HB written as one ``_handle_event`` chain: no rule the engine inlines."""

    PARTIAL_ORDER = "HB"

    def _handle_event(self, event, clock):
        if event.kind is OpKind.ACQUIRE:
            clock.join(self.clock_of_lock(event.target))
        elif event.kind is OpKind.RELEASE:
            self.clock_of_lock(event.target).monotone_copy(clock)


#: Every order × clock × detect, the two deep-copy ablations and an order
#: that implements only ``_handle_event``, each under both clocks.
SHAPE_MATRIX = [
    (analysis_class, clock_class, detect)
    for analysis_class in ALL_ANALYSES
    for clock_class in ALL_CLOCKS
    for detect in (False, True)
] + [
    (analysis_class, clock_class, detect)
    for analysis_class, detect in (
        (HBDeepCopyAnalysis, True),
        (SHBDeepCopyAnalysis, True),
        (HandleEventHB, False),
    )
    for clock_class in ALL_CLOCKS
]


def _sizes(rng):
    return [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]


def _colf_bytes(trace, rng):
    buffer = io.BytesIO()
    write_colf(trace.events, buffer, segment_events=rng.randint(1, 64))
    return buffer.getvalue()


def _feed_colf(analysis, trace, rng):
    """Column batches cut by the colf reader: ragged at segment ends."""
    with ColfReader(_colf_bytes(trace, rng)) as reader:
        for batch in reader.iter_batches(rng.choice([None, rng.randint(1, 40)])):
            assert isinstance(batch, ColumnBatch)
            analysis.feed_batch(batch)


def _feed_event_lists(analysis, trace, rng):
    for batch in _partition(list(trace), _sizes(rng)):
        analysis.feed_batch(batch)


def _feed_singles(analysis, trace, rng):
    for event in trace:
        analysis.feed(event)


def _feed_mixed(analysis, trace, rng):
    """Each batch of a random partition in a random shape."""
    for batch in _partition(list(trace), _sizes(rng)):
        shape = rng.randrange(4)
        if shape == 0:
            analysis.feed_batch(tuple(batch))
        elif shape == 1:
            eids, tids, kinds, targets = zip(*batch)
            analysis.feed_batch(ColumnBatch(eids, tids, kinds, targets))
        elif shape == 2:
            analysis.feed_batch(batch)
        else:
            for event in batch:
                analysis.feed(event)


FEEDERS = {
    "colf": _feed_colf,
    "event-lists": _feed_event_lists,
    "singles": _feed_singles,
    "mixed": _feed_mixed,
}


def _walk(analysis_class, clock_class, detect, trace, shape, rng):
    """One walk of ``trace`` fed as ``shape``; returns everything it observed."""
    raced, located = [], []

    def locate(event):
        located.append(event)
        return f"line {event.eid}"

    analysis = analysis_class(
        clock_class,
        capture_timestamps=True,
        count_work=True,
        detect=detect,
        on_race=raced.append,
        locate=locate,
    )
    if shape == "trace":
        result = analysis.run(trace, batch_size=rng.randint(1, 50))
    else:
        analysis.begin(threads=trace.threads, trace_name=trace.name)
        FEEDERS[shape](analysis, trace, rng)
        result = analysis.finish()
    return result, raced, located


def _observed(result, raced, located):
    work = result.work
    detection = result.detection
    return {
        "events": result.num_events,
        "threads": result.num_threads,
        "timestamps": result.timestamps,
        "work": (work.entries_processed, work.entries_updated, work.joins, work.copies, work.increments),
        "checks": None if detection is None else detection.checks,
        "races": None if detection is None else detection.races,
        "raced": raced,
        "located": [tuple(event) for event in located],
    }


class TestBatchShapes:
    """Colf column batches, ``Event`` lists, a ``Trace`` and single events
    walk identically, for every analysis the engine runs."""

    SHAPES = ["colf", "event-lists", "trace", "singles", "mixed"]

    @pytest.mark.parametrize(
        "analysis_class,clock_class,detect",
        SHAPE_MATRIX,
        ids=[
            f"{cls.__name__}-{clock.__name__}{'-detect' if detect else ''}"
            for cls, clock, detect in SHAPE_MATRIX
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_shape_walks_identically(self, analysis_class, clock_class, detect, seed):
        rng = random.Random(seed)
        trace = make_random_trace(
            seed, num_events=rng.randint(80, 220), include_fork_join=seed % 2 == 1
        )
        walks = {
            shape: _walk(analysis_class, clock_class, detect, trace, shape, rng)
            for shape in self.SHAPES
        }
        reference = _observed(*walks["singles"])
        for shape, walk in walks.items():
            assert _observed(*walk) == reference, shape
            result, raced, located = walk
            # Hooks still get the racy Event itself, whatever the batch shape.
            assert all(type(event) is Event and event == trace[event.eid] for event in located)
            if result.detection is not None:
                assert {race.event_eid for race in raced} <= {event.eid for event in located}
                assert [race.location for race in raced] == [
                    f"line {race.event_eid}" for race in raced
                ]
        if detect:
            assert reference["checks"] > 0

    def test_the_random_traces_have_races(self):
        # Guards the test above against traces in which nothing is located.
        result, raced, located = _walk(
            HBAnalysis, TreeClock, True, make_random_trace(0, num_events=150), "colf", random.Random(0)
        )
        assert raced and located


class TestSessionBatchShapes:
    """The same at the session layer, where every spec walks one shared batch."""

    SPECS = [
        f"{order}+{clock}{detect}+ts+work"
        for order in ("hb", "shb", "maz")
        for clock in ("tc", "vc")
        for detect in ("", "+detect")
    ]

    @staticmethod
    def observed(result):
        out = {"events": result.num_events}
        for key, spec_result in result:
            work = spec_result.work
            detection = spec_result.detection
            out[key] = (
                spec_result.num_threads,
                spec_result.timestamps,
                (work.entries_processed, work.entries_updated, work.joins, work.copies),
                None if detection is None else (detection.checks, detection.races),
            )
        return out

    def walk(self, trace, path, shape, rng):
        """One session walk of ``trace`` fed as ``shape``, and the event
        objects the detecting specs' hooks got, per eid (kept alive, so
        that no two of them can share an id)."""
        located = {}

        def locate(event):
            located.setdefault(event.eid, []).append(event)

        session = Session(self.SPECS, locate=locate)
        if shape == "colf":
            return session.run(path, batch_size=rng.randint(1, 50)), located
        if shape == "trace":
            return session.run(trace, batch_size=rng.randint(1, 50)), located
        session.begin(threads=trace.threads, name=trace.name)
        if shape == "singles":
            for event in trace:
                session.feed(event)
        else:
            for batch in _partition(list(trace), _sizes(rng)):
                session.feed_batch(batch)
        return session.finish(), located

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sources_and_feeds_agree(self, tmp_path, seed):
        rng = random.Random(seed)
        trace = make_random_trace(seed, num_events=200, include_fork_join=seed % 2 == 1)
        path = tmp_path / "trace.colf"
        path.write_bytes(_colf_bytes(trace, rng))
        walks = {
            shape: self.walk(trace, path, shape, rng)
            for shape in ("colf", "trace", "event-lists", "singles")
        }
        reference = self.observed(walks["singles"][0])
        for shape, (result, located) in walks.items():
            assert self.observed(result) == reference, shape
            # Every detecting spec's hooks got the same Event object for an
            # event: a batch builds its events at most once for all specs.
            assert located and all(
                all(event is events[0] for event in events) for events in located.values()
            ), shape
            assert max(len(events) for events in located.values()) > 1

    def test_a_lock_only_colf_walk_builds_no_events(self, tmp_path):
        builder = TraceBuilder(name="locks")
        for index in range(300):
            tid = 1 + index % 5
            builder.acquire(tid, f"l{index % 3}").release(tid, f"l{index % 3}")
        path = tmp_path / "locks.colf"
        write_colf(builder.build().events, path, segment_events=97)
        batches = []
        with ColfSource(path) as source:
            original = source.event_batches

            def kept(batch_size=DEFAULT_BATCH_SIZE):
                for batch in original(batch_size):
                    batches.append(batch)
                    yield batch

            source.event_batches = kept
            result = Session(["hb+tc+detect", "shb+vc+detect", "maz+tc"]).run(source)
        assert result.num_events == 600 and len(batches) == 7
        assert all(batch._events is None for batch in batches)
