"""Unit tests for the work counter / clock context plumbing."""

from repro.clocks import ClockContext, TreeClock, VectorClock, WorkCounter, clock_name
from repro.clocks.base import vt_equal, vt_get, vt_join, vt_leq


class TestWorkCounter:
    def test_record_increment(self):
        counter = WorkCounter()
        counter.record_increment()
        assert counter.increments == 1
        assert counter.entries_processed == 1
        assert counter.entries_updated == 1

    def test_record_join_and_copy(self):
        counter = WorkCounter()
        counter.record_join(processed=10, updated=3)
        counter.record_copy(processed=4, updated=4)
        assert counter.joins == 1 and counter.copies == 1
        assert counter.entries_processed == 14
        assert counter.entries_updated == 7

    def test_merged_with(self):
        a, b = WorkCounter(), WorkCounter()
        a.record_join(5, 2)
        b.record_copy(3, 1)
        merged = a.merged_with(b)
        assert merged.entries_processed == 8
        assert merged.entries_updated == 3
        assert merged.joins == 1 and merged.copies == 1

    def test_reset(self):
        counter = WorkCounter()
        counter.record_join(5, 2)
        counter.reset()
        assert counter.entries_processed == 0
        assert counter.joins == 0


class TestClockContext:
    def test_threads_are_deduplicated_in_order(self):
        context = ClockContext(threads=[3, 1, 3, 2, 1])
        assert list(context.threads) == [3, 1, 2]
        assert context.num_threads == 3

    def test_index_of_mapping(self):
        context = ClockContext(threads=[5, 7])
        assert context.index_of == {5: 0, 7: 1}


class TestVectorTimeHelpers:
    def test_vt_get_defaults_to_zero(self):
        assert vt_get({1: 4}, 2) == 0

    def test_vt_leq(self):
        assert vt_leq({1: 1}, {1: 2, 2: 1})
        assert not vt_leq({1: 3}, {1: 2})
        assert vt_leq({}, {1: 1})

    def test_vt_join(self):
        assert vt_join({1: 3, 2: 1}, {2: 4}) == {1: 3, 2: 4}

    def test_vt_equal_treats_missing_as_zero(self):
        assert vt_equal({1: 0}, {})
        assert not vt_equal({1: 1}, {})


class TestRegistry:
    def test_clock_name(self):
        assert clock_name(VectorClock) == "VC"
        assert clock_name(TreeClock) == "TC"
        assert clock_name(dict) == "dict"
