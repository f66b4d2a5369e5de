"""Edge cases at the boundaries where a sequential walk is cut.

A session walk is cut in three places: between colf segments (each
segment decodes separately), between the batches ``Session.run`` feeds,
and between a :meth:`Session.checkpoint` and the :meth:`Session.restore`
that resumes it (every clock rebuilt from its exact snapshot).  Every
clock must carry its state across each cut unchanged, down to the work
counters.  Each case here puts a
cut inside the interesting stretch — a lock held across it, a fork on
one side and its join on the other, a thread first seen after it — and
checks the result against one uncut in-memory walk, for both clocks.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.api.sources import ColfSource
from repro.trace import Trace
from repro.trace import event as ev
from repro.trace.colfmt import ColfReader, write_colf

BOUNDARIES = ["segment", "batch", "checkpoint"]
CLOCKS = ["tc", "vc"]


def walk_uncut(spec, events):
    """The reference: one in-memory walk fed as a single batch."""
    return Session([spec]).run(Trace(events), batch_size=len(events))[spec]


def walk_uncut_growing(spec, events):
    """An uncut walk that begins without a thread list, as a checkpointed one does.

    Its thread universe grows as threads appear, so vector clocks are
    created and grown at the same points as in the checkpointed walk:
    their array lengths, and so their work counts, follow the universe.
    """
    session = Session([spec])
    session.begin(name="t")
    session.feed_batch(list(Trace(events)))
    return session.finish()[spec]


def walk_across(boundary, spec, events, cut, tmp_path):
    """Walk ``events`` with a ``boundary``-kind cut before event ``cut``.

    Segments and batches repeat the cut every ``cut`` events; a
    checkpoint cuts once, round-tripping the snapshot through JSON as
    the on-disk form does.
    """
    if boundary == "segment":
        path = tmp_path / "trace.colf"
        write_colf(events, path, segment_events=cut)
        with ColfSource(path) as source:
            return Session([spec]).run(source)[spec]
    if boundary == "batch":
        return Session([spec]).run(Trace(events), batch_size=cut)[spec]
    numbered = list(Trace(events))
    first = Session([spec])
    first.begin(name="t")
    first.feed_batch(numbered[:cut])
    state = json.loads(json.dumps(first.checkpoint()))
    resumed = Session([spec])
    resumed.restore(state)
    resumed.feed_batch(numbered[cut:])
    return resumed.finish()[spec]


def race_pairs(result):
    return [race.pair() for race in result.detection.races]


def racing_tids(result):
    return {race.event_tid for race in result.detection.races}


def assert_same_walk(actual, expected):
    assert race_pairs(actual) == race_pairs(expected)
    assert actual.detection.checks == expected.detection.checks
    assert actual.timestamps == expected.timestamps
    assert actual.num_events == expected.num_events


def test_ragged_final_segment(tmp_path):
    """65 events over segment_events=16: a 1-event final segment."""
    events = [
        ev.write(1 + (i % 3), f"x{i % 4}") if i % 2 else ev.read(1 + (i % 3), f"x{i % 4}")
        for i in range(65)
    ]
    path = tmp_path / "trace.colf"
    write_colf(events, path, segment_events=16)
    with ColfReader(path) as reader:
        assert [segment.count for segment in reader.segments] == [16, 16, 16, 16, 1]
    with ColfSource(path) as source:
        actual = Session(["shb+tc+detect+ts"]).run(source).primary
    expected = walk_uncut("shb+tc+detect+ts", events)
    assert_same_walk(actual, expected)
    assert expected.detection.race_count > 0


@pytest.mark.parametrize("clock", CLOCKS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
class TestCutInside:
    def test_lock_pair_split_across_boundary(self, tmp_path, boundary, clock):
        """Acquire before the cut, release after: the lock clock must
        carry the holder's state across it."""
        events = [ev.acquire(1, "m"), ev.write(1, "x")]
        events.extend(ev.read(1, "pad") for _ in range(6))  # the cut falls here
        events.append(ev.release(1, "m"))
        events.append(ev.acquire(2, "m"))
        events.append(ev.write(2, "x"))  # ordered via m: no race
        events.append(ev.release(2, "m"))
        events.append(ev.write(3, "x"))  # unordered: races with both writes
        spec = f"hb+{clock}+detect+ts"
        actual = walk_across(boundary, spec, events, 4, tmp_path)
        assert_same_walk(actual, walk_uncut(spec, events))
        assert racing_tids(actual) == {3}

    def test_lock_handed_over_across_boundary(self, tmp_path, boundary, clock):
        """Release before the cut, the next acquire after: the released
        lock clock is the only carrier of the ordering."""
        events = [ev.acquire(1, "m"), ev.write(1, "x")]
        events.extend(ev.read(1, "pad") for _ in range(6))
        events.append(ev.release(1, "m"))  # the cut falls right after this
        events.append(ev.acquire(2, "m"))
        events.append(ev.write(2, "x"))  # ordered via m: no race
        events.append(ev.release(2, "m"))
        events.append(ev.write(3, "x"))  # unordered: races with both writes
        spec = f"hb+{clock}+detect+ts"
        actual = walk_across(boundary, spec, events, 9, tmp_path)
        assert_same_walk(actual, walk_uncut(spec, events))
        assert racing_tids(actual) == {3}

    def test_fork_join_split_across_boundary(self, tmp_path, boundary, clock):
        events = [ev.fork(1, 2)]
        events.extend(ev.write(2, "pad") for _ in range(9))
        events.append(ev.write(2, "x"))
        events.append(ev.join(1, 2))  # lands after the cut
        events.append(ev.write(1, "x"))  # ordered via join: no race
        events.append(ev.write(3, "x"))  # unordered: races
        spec = f"hb+{clock}+detect+ts"
        actual = walk_across(boundary, spec, events, 4, tmp_path)
        assert_same_walk(actual, walk_uncut(spec, events))
        assert racing_tids(actual) == {3}

    def test_thread_first_seen_after_boundary(self, tmp_path, boundary, clock):
        """A thread whose first event follows the cut still resolves."""
        events = [ev.write(1, "x") for _ in range(12)]
        events.append(ev.write(9, "x"))  # brand-new thread, after the cut
        spec = f"shb+{clock}+detect+ts"
        actual = walk_across(boundary, spec, events, 12, tmp_path)
        assert_same_walk(actual, walk_uncut(spec, events))
        assert racing_tids(actual) == {9}
        assert actual.num_threads == 2

    def test_work_counters_carry_across_boundary(self, tmp_path, boundary, clock):
        """Work counts are exact across every cut, so every clock's shape is.

        Four threads hand two locks round, so HB joins and copies on
        both sides of each cut, and tree clocks grow chains that a
        restore must rebuild exactly: a flattened tree prunes
        differently and shifts ``entries_processed``.
        """
        events = []
        for i in range(20):
            tid, lock = 1 + (i % 4), "m0" if i % 3 else "m1"
            events += [ev.acquire(tid, lock), ev.write(tid, f"x{i % 2}"), ev.release(tid, lock)]
        spec = f"hb+{clock}+work"
        actual = walk_across(boundary, spec, events, 16, tmp_path).work
        uncut = walk_uncut_growing if boundary == "checkpoint" else walk_uncut
        expected = uncut(spec, events).work
        assert actual.increments == 60  # one per event
        assert actual.joins == actual.copies == 20
        assert actual == expected
