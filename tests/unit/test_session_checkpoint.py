"""Differential tests of :meth:`Session.checkpoint` / :meth:`Session.restore`.

The contract: a walk interrupted at *any* event boundary, serialized
through JSON (the on-disk snapshot format), restored into a fresh
Session and driven to the end must report exactly what the
uninterrupted walk reports — same races, in the same order, same check
counts, same work counters — and end with the same engine state, every
clock's exact snapshot included, for every order/clock/detector
combination the engine ships.
"""

import dataclasses
import json
import random

import pytest

from repro import TraceBuilder
from repro.api import Session
from repro.gen.random_trace import RandomTraceConfig, generate_trace


def mixed_trace():
    """Locks, fork/join-free contention, and str *and* int variables."""
    builder = TraceBuilder(name="mixed")
    for round_index in range(40):
        for tid in (1, 2, 3):
            builder.acquire(tid, "m").write(tid, "guarded").release(tid, "m")
            builder.write(tid, f"x{tid}")
            builder.read(tid, 1000 + round_index % 7)
            builder.write(tid, 1000 + round_index % 7)
    return builder.build()


def run_with_checkpoint(specs, trace, cut):
    """Run ``trace`` with a JSON-round-tripped checkpoint/restore at ``cut``.

    Returns the final result and the engine states just before
    :meth:`Session.finish`.
    """
    events = list(trace)
    first = Session(specs)
    first.begin(name=trace.name or "t")
    first.feed_batch(events[:cut])
    state = json.loads(json.dumps(first.checkpoint()))
    resumed = Session(specs)
    resumed.restore(state)
    resumed.feed_batch(events[cut:])
    return finish_with_states(resumed)


def run_straight(specs, trace):
    """Run ``trace`` uncut; returns the result and the final engine states."""
    session = Session(specs)
    session.begin(name=trace.name or "t")
    session.feed_batch(list(trace))
    return finish_with_states(session)


def finish_with_states(session):
    """``session.finish()`` plus each spec's engine state, wall clock dropped."""
    states = session.checkpoint()["analyses"]
    for state in states.values():
        del state["elapsed_ns"]
    return session.finish(), states


def summary_of(result):
    per_spec = {}
    for key, analysis in result:
        detection = analysis.detection
        per_spec[key] = {
            "races": [race.pair() for race in detection.races],
            "race_count": detection.race_count,
            "checks": detection.checks,
            "events": analysis.num_events,
            "work": None if analysis.work is None else dataclasses.asdict(analysis.work),
        }
    return per_spec


ALL_SPECS = [
    "hb+tc+detect+work",
    "hb+vc+detect+work",
    "shb+tc+detect+work",
    "shb+vc+detect+work",
    "maz+tc+detect+work",
    "maz+vc+detect+work",
]


def generated_trace(seed):
    """A seeded random trace of 2–12 threads and 50–600 events."""
    rng = random.Random(seed)
    config = RandomTraceConfig(
        num_threads=rng.randint(2, 12),
        num_locks=rng.randint(1, 6),
        num_variables=rng.randint(2, 16),
        num_events=rng.randint(50, 600),
        seed=seed,
    )
    return generate_trace(config)


class TestCheckpointDifferential:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_every_engine_matches_uninterrupted(self, spec):
        trace = mixed_trace()
        straight, straight_states = run_straight([spec], trace)
        for cut in (1, len(trace) // 3, len(trace) // 2, len(trace) - 1):
            resumed, resumed_states = run_with_checkpoint([spec], trace, cut)
            assert summary_of(resumed) == summary_of(straight), f"{spec} diverged at cut={cut}"
            # The whole engine state: every clock's exact snapshot,
            # detector maps and work counters.
            assert resumed_states == straight_states, f"{spec} state diverged at cut={cut}"

    @pytest.mark.parametrize("seed", range(30))
    def test_generated_walks_resume_exactly(self, seed):
        """Walked without a thread list, so the universe grows across the cut."""
        trace = generated_trace(seed)
        cut = random.Random(seed).randint(1, len(trace) - 1)
        straight, straight_states = run_straight(ALL_SPECS, trace)
        resumed, resumed_states = run_with_checkpoint(ALL_SPECS, trace, cut)
        assert summary_of(resumed) == summary_of(straight)
        assert resumed_states == straight_states

    def test_maz_reader_order_survives_restore(self):
        """Readers 11 and 3 share a slot of a small set, so the set's own
        order depends on its insertion history, which a restore cannot
        rebuild; the write after the cut must still join them in the
        uncut walk's order."""
        builder = TraceBuilder(name="readers")
        builder.read(11, "x").read(3, "x").write(1, "x")
        trace = builder.build()
        _, straight_states = run_straight(["maz+tc+work"], trace)
        _, resumed_states = run_with_checkpoint(["maz+tc+work"], trace, 2)
        assert resumed_states == straight_states

    def test_multi_spec_session_round_trips_together(self):
        trace = mixed_trace()
        specs = ["hb+tc+detect", "shb+vc+detect", "maz+tc+detect"]
        straight, straight_states = run_straight(specs, trace)
        resumed, resumed_states = run_with_checkpoint(specs, trace, len(trace) // 2)
        assert summary_of(resumed) == summary_of(straight)
        assert resumed_states == straight_states
        assert any(entry["race_count"] > 0 for entry in summary_of(straight).values())

    def test_races_do_not_refire_on_restore(self):
        trace = mixed_trace()
        events = list(trace)
        fired = []
        session = Session(["shb+tc+detect"], on_race=fired.append)
        session.begin(name="t")
        session.feed_batch(events[: len(events) // 2])
        state = session.checkpoint()
        seen_before = len(fired)

        refired = []
        resumed = Session(["shb+tc+detect"], on_race=refired.append)
        resumed.restore(state)
        resumed.feed_batch(events[len(events) // 2 :])
        result = resumed.finish()
        # callbacks only fire for post-restore races, but the summary
        # still holds the full set
        detection = result["shb+tc+detect"].detection
        assert len(refired) == detection.race_count - seen_before
        assert detection.race_count >= seen_before

    def test_checkpoint_before_begin_is_an_error(self):
        with pytest.raises(RuntimeError):
            Session(["hb+tc"]).checkpoint()

    def test_restore_rejects_mismatched_specs(self):
        trace = mixed_trace()
        session = Session(["hb+tc+detect"])
        session.begin(name="t")
        session.feed_batch(list(trace)[:10])
        state = session.checkpoint()
        with pytest.raises(ValueError):
            Session(["shb+tc+detect"]).restore(state)
