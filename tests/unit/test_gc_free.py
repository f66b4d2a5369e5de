"""Tree clocks and finished walks leave nothing for the cyclic garbage collector.

A tree-clock entry is an int index into its context's node pool, so a
clock allocates no object the collector tracks however many entries it
grows.  A finished analysis holds no reference cycle, so dropping a
session and its result frees every clock, the pool and the detector
maps by reference counting, whatever the source was.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import Session
from repro.clocks import ClockContext, TreeClock
from repro.trace.io import save_trace
from util_traces import make_random_trace

SPECS = [f"{order}+{clock}+detect" for order in ("hb", "shb", "maz") for clock in ("tc", "vc")]


def test_growing_a_tree_clock_allocates_no_tracked_objects():
    context = ClockContext(threads=list(range(300)))
    clock = TreeClock(context, owner=0)
    others = [TreeClock(context, owner=tid) for tid in range(1, 300)]
    for other in others:
        other.increment(other.owner)
    gc.collect()
    before = len(gc.get_objects())
    for other in others:
        clock.increment(0)
        clock.join(other)
    assert clock.node_count == 300
    assert len(gc.get_objects()) - before < 5


@pytest.mark.parametrize("form", ["std", "csv", "colf", "trace"])
def test_a_finished_walk_leaves_no_cyclic_garbage(tmp_path, form):
    trace = make_random_trace(7, num_events=600, include_fork_join=True)
    if form == "trace":
        source = trace
    else:
        source = str(tmp_path / f"walk.{form}")
        save_trace(trace, source, fmt=form)
    Session(SPECS).run(source)  # first use: lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        session = Session(SPECS)
        result = session.run(source)
        assert all(result[spec].detection.race_count > 0 for spec in SPECS)
        del session, result
        assert gc.collect() == 0
    finally:
        gc.enable()
