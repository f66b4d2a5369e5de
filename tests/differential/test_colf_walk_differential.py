"""Differential check: a session walk over a colf container ≡ the in-memory walk.

A :class:`~repro.api.sources.ColfSource` feeds a session column
batches of at most ``batch_size`` events cut straight from each
segment, with the thread universe read from the container footer.  None of that may
change what the walk computes: for every spec the race list (same
races, same order), the detector check counts, the per-event
timestamps, the work counters and the event/thread totals must be
identical to a walk over the same events held in memory as one
:class:`~repro.trace.Trace`.  This module pins that contract across
the full order × clock matrix, every generator scenario, fork/join
traces and hypothesis-random traces, at several segment and batch
sizes — a decode or boundary bug that shifts one clock entry or
reorders one race fails here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.api.sources import ColfSource
from repro.gen.scenarios import SCENARIOS
from repro.trace import Trace
from repro.trace.colfmt import write_colf
from util_traces import make_random_trace, trace_strategy

#: The full order × clock sweep, with detection, timestamps and work
#: counters on everywhere so boundary clock values are compared exactly.
MATRIX_SPECS = [
    f"{order}+{clock}+detect+ts+work"
    for order in ("hb", "shb", "maz")
    for clock in ("tc", "vc")
]

#: Shorter slice for the many-trace sweeps.
SESSION_SPECS = ["hb+tc+detect", "shb+vc+detect", "maz+tc+detect"]


def write_container(events, tmp_path, segment_events=128):
    path = tmp_path / "trace.colf"
    with open(path, "wb") as handle:
        write_colf(events, handle, segment_events=segment_events)
    return path


def run_both(events, tmp_path, specs, *, segment_events=128, batch_size=None):
    """Walk ``events`` in memory and from a colf container; return both results."""
    in_memory = Session(specs).run(Trace(events, name="mem"))
    path = write_container(events, tmp_path, segment_events=segment_events)
    with ColfSource(path) as source:
        if batch_size is None:
            from_colf = Session(specs).run(source)
        else:
            from_colf = Session(specs).run(source, batch_size=batch_size)
    return in_memory, from_colf


def assert_equivalent(in_memory, from_colf):
    assert from_colf.num_events == in_memory.num_events
    assert set(from_colf.results) == set(in_memory.results)
    for key in in_memory.results:
        expected = in_memory[key]
        actual = from_colf[key]
        assert actual.num_events == expected.num_events, key
        assert actual.num_threads == expected.num_threads, key
        if expected.detection is not None:
            expected_races = [race.pair() for race in expected.detection.races]
            actual_races = [race.pair() for race in actual.detection.races]
            assert actual_races == expected_races, f"{key}: race lists diverge"
            assert actual.detection.checks == expected.detection.checks, key
            assert (
                actual.detection.total_reported == expected.detection.total_reported
            ), key
        if expected.timestamps is not None:
            assert actual.timestamps == expected.timestamps, f"{key}: timestamps diverge"
        if expected.work is not None:
            assert actual.work == expected.work, f"{key}: work counters diverge"


class TestMatrixEquivalence:
    def test_full_order_clock_matrix(self, tmp_path):
        events = list(make_random_trace(11, num_events=1500, include_fork_join=True))
        in_memory, from_colf = run_both(events, tmp_path, MATRIX_SPECS)
        assert_equivalent(in_memory, from_colf)
        assert in_memory.primary.detection.race_count > 0

    @pytest.mark.parametrize("segment_events", [16, 64, 257])
    def test_segment_sizes(self, tmp_path, segment_events):
        events = list(make_random_trace(23, num_events=800, include_fork_join=True))
        in_memory, from_colf = run_both(
            events, tmp_path, MATRIX_SPECS, segment_events=segment_events
        )
        assert_equivalent(in_memory, from_colf)

    @pytest.mark.parametrize("batch_size", [1, 7, 500])
    def test_batch_sizes(self, tmp_path, batch_size):
        """Batches finer than a segment, and coarser (one batch per segment)."""
        events = list(make_random_trace(5, num_events=900))
        in_memory, from_colf = run_both(
            events, tmp_path, MATRIX_SPECS, segment_events=128, batch_size=batch_size
        )
        assert_equivalent(in_memory, from_colf)


class TestScenarioEquivalence:
    def test_all_generator_scenarios(self, tmp_path):
        for name, factory in sorted(SCENARIOS.items()):
            events = list(factory(8, 1200, 3))
            in_memory, from_colf = run_both(events, tmp_path, SESSION_SPECS)
            assert_equivalent(in_memory, from_colf)

    def test_fork_join_heavy(self, tmp_path):
        events = list(
            make_random_trace(41, num_threads=10, num_events=1000, include_fork_join=True)
        )
        in_memory, from_colf = run_both(events, tmp_path, MATRIX_SPECS)
        assert_equivalent(in_memory, from_colf)

    def test_sync_free_trace(self, tmp_path):
        events = list(make_random_trace(13, num_events=600, sync_bias=0.0))
        in_memory, from_colf = run_both(events, tmp_path, MATRIX_SPECS)
        assert_equivalent(in_memory, from_colf)

    def test_sync_heavy_trace(self, tmp_path):
        events = list(make_random_trace(17, num_events=600, sync_bias=0.9))
        in_memory, from_colf = run_both(events, tmp_path, MATRIX_SPECS)
        assert_equivalent(in_memory, from_colf)


class TestCallbackEquivalence:
    def test_on_race_sees_trace_order(self, tmp_path):
        events = list(make_random_trace(3, num_events=700, sync_bias=0.2))
        path = write_container(events, tmp_path)
        in_memory_races, colf_races = [], []
        Session(SESSION_SPECS, on_race=in_memory_races.append).run(Trace(events))
        with ColfSource(path) as source:
            Session(SESSION_SPECS, on_race=colf_races.append).run(source)
        assert in_memory_races
        assert [race.pair() for race in colf_races] == [
            race.pair() for race in in_memory_races
        ]

    def test_countonly_narrator(self, tmp_path):
        """keep_races=False + on_race: callbacks fire, races stay trimmed."""
        events = list(make_random_trace(9, num_events=500, sync_bias=0.2))
        path = write_container(events, tmp_path)
        reference = Session(["hb+tc+detect"]).run(Trace(events)).primary.detection
        seen = []
        with ColfSource(path) as source:
            result = Session(["hb+tc+detect+countonly"], on_race=seen.append).run(source)
        summary = result.primary.detection
        assert summary.races == []
        assert summary.total_reported == len(seen) == reference.total_reported
        assert [race.pair() for race in seen] == [
            race.pair() for race in reference.races
        ]
        assert len(seen) > 0


class TestHypothesisEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(trace=trace_strategy(max_events=120, include_fork_join=True), data=st.data())
    def test_random_traces(self, tmp_path_factory, trace, data):
        events = list(trace)
        if not events:
            return
        segment_events = data.draw(st.sampled_from([8, 16, 32]))
        batch_size = data.draw(st.integers(min_value=1, max_value=40))
        tmp_path = tmp_path_factory.mktemp("colf-walk-hyp")
        in_memory, from_colf = run_both(
            events,
            tmp_path,
            SESSION_SPECS,
            segment_events=segment_events,
            batch_size=batch_size,
        )
        assert_equivalent(in_memory, from_colf)
