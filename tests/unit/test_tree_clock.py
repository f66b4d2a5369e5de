"""Unit tests for the tree clock data structure (:mod:`repro.clocks.tree_clock`)."""

import json

import pytest

from repro.clocks import ClockContext, TreeClock, VectorClock, WorkCounter
from repro.clocks.base import vt_join


def make_context(num_threads: int = 6, with_counter: bool = False) -> ClockContext:
    counter = WorkCounter() if with_counter else None
    return ClockContext(threads=list(range(1, num_threads + 1)), counter=counter)


class TestInitialization:
    def test_owned_clock_has_root_at_zero(self):
        clock = TreeClock(make_context(), owner=3)
        assert clock.root is not None
        assert clock.root.tid == 3
        assert clock.root.clk == 0
        assert clock.root.aclk is None
        assert clock.get(3) == 0

    def test_auxiliary_clock_starts_empty(self):
        clock = TreeClock(make_context())
        assert clock.root is None
        assert clock.node_count == 0
        assert clock.as_dict() == {}

    def test_short_name(self):
        assert TreeClock.SHORT_NAME == "TC"

    def test_validate_structure_on_fresh_clocks(self):
        assert TreeClock(make_context(), owner=1).validate_structure() == []
        assert TreeClock(make_context()).validate_structure() == []


class TestGetIncrement:
    def test_get_unknown_thread_is_zero(self):
        clock = TreeClock(make_context(), owner=1)
        assert clock.get(4) == 0

    def test_increment_root_thread(self):
        clock = TreeClock(make_context(), owner=2)
        clock.increment(2)
        clock.increment(2, 4)
        assert clock.get(2) == 5

    def test_increment_non_root_thread_raises(self):
        clock = TreeClock(make_context(), owner=2)
        with pytest.raises(ValueError):
            clock.increment(3)

    def test_increment_empty_clock_raises(self):
        clock = TreeClock(make_context())
        with pytest.raises(ValueError):
            clock.increment(1)

    def test_node_of_returns_thread_map_entry(self):
        clock = TreeClock(make_context(), owner=1)
        assert clock.node_of(1) == clock.root
        assert clock.node_of(2) is None

    def test_clocks_of_two_contexts_do_not_mix(self):
        """Nodes are indices into their context's pool, meaningless in another."""
        ours = TreeClock(make_context(), owner=1)
        theirs = TreeClock(make_context(), owner=2)
        theirs.increment(2)
        for operation in (ours.join, ours.monotone_copy, ours.copy_check_monotone, ours.copy_from):
            with pytest.raises(ValueError, match="context"):
                operation(theirs)
        assert ours.snapshot() == [[1, 0, None, 0]]


def build_clock(context: ClockContext, owner: int, local_time: int) -> TreeClock:
    """An owned clock advanced to the given local time."""
    clock = TreeClock(context, owner=owner)
    clock.increment(owner, local_time)
    return clock


class TestJoin:
    def test_join_learns_other_threads_entries(self):
        context = make_context()
        a = build_clock(context, 1, 5)
        b = build_clock(context, 2, 3)
        a.join(b)
        assert a.as_dict() == {1: 5, 2: 3}
        assert a.validate_structure() == []

    def test_join_matches_pointwise_maximum(self):
        context = make_context()
        a = build_clock(context, 1, 2)
        b = build_clock(context, 2, 4)
        c = build_clock(context, 3, 6)
        b.join(c)
        a.join(b)
        expected = vt_join({1: 2}, vt_join({2: 4}, {3: 6}))
        assert a.as_dict() == expected

    def test_join_keeps_root_thread(self):
        context = make_context()
        a = build_clock(context, 1, 1)
        b = build_clock(context, 2, 9)
        a.join(b)
        assert a.root.tid == 1

    def test_join_with_empty_clock_is_noop(self):
        context = make_context()
        a = build_clock(context, 1, 3)
        empty = TreeClock(context)
        a.join(empty)
        assert a.as_dict() == {1: 3}

    def test_join_into_empty_clock_copies(self):
        context = make_context()
        empty = TreeClock(context)
        b = build_clock(context, 2, 4)
        empty.join(b)
        assert empty.as_dict() == {2: 4}
        assert empty.root.tid == 2

    def test_join_early_returns_when_nothing_new(self):
        context = make_context()
        a = build_clock(context, 1, 2)
        b = build_clock(context, 2, 5)
        a.join(b)
        shape_before = a.as_dict()
        stale = TreeClock(context, owner=2)
        stale.increment(2, 3)  # older view of thread 2
        a.join(stale)
        assert a.as_dict() == shape_before

    def test_join_is_transitive_through_intermediate(self):
        context = make_context()
        c1 = build_clock(context, 1, 7)
        c2 = build_clock(context, 2, 2)
        c3 = build_clock(context, 3, 4)
        c2.join(c1)       # t2 learns t1
        c3.join(c2)       # t3 learns t1 transitively through t2
        assert c3.get(1) == 7
        assert c3.get(2) == 2

    def test_joined_subtree_sits_under_root_with_attachment_clock(self):
        context = make_context()
        a = build_clock(context, 1, 5)
        b = build_clock(context, 2, 3)
        a.join(b)
        child = a.root.first_child
        assert child.tid == 2
        assert child.clk == 3
        assert child.aclk == 5  # the root's time when the subtree was attached

    def test_children_ordered_by_descending_attachment_clock(self):
        context = make_context()
        a = build_clock(context, 1, 1)
        for other, time in ((2, 3), (3, 4), (4, 5)):
            a.increment(1, 1)
            a.join(build_clock(context, other, time))
        aclks = [child.aclk for child in a.root.children()]
        assert aclks == sorted(aclks, reverse=True)
        assert a.validate_structure() == []

    def test_join_updates_existing_entry_to_larger_value(self):
        context = make_context()
        a = build_clock(context, 1, 1)
        old = build_clock(context, 2, 2)
        new = build_clock(context, 2, 6)
        a.join(old)
        a.join(new)
        assert a.get(2) == 6
        assert a.validate_structure() == []

    def test_join_self_knowledge_is_never_decreased(self):
        context = make_context()
        a = build_clock(context, 1, 10)
        b = build_clock(context, 2, 1)
        b.join(a)
        a.increment(1, 5)
        a.join(b)
        assert a.get(1) == 15


class TestMonotoneCopy:
    def test_copy_into_empty_clock(self):
        context = make_context()
        source = build_clock(context, 1, 4)
        source.join(build_clock(context, 2, 2))
        target = TreeClock(context)
        target.monotone_copy(source)
        assert target.as_dict() == source.as_dict()
        assert target.root.tid == source.root.tid
        assert target.validate_structure() == []

    def test_copy_changes_root_thread(self):
        context = make_context()
        lock_clock = TreeClock(context)
        first = build_clock(context, 1, 2)
        lock_clock.monotone_copy(first)
        assert lock_clock.root.tid == 1
        second = build_clock(context, 2, 3)
        second.join(lock_clock)
        lock_clock.monotone_copy(second)
        assert lock_clock.root.tid == 2
        assert lock_clock.as_dict() == second.as_dict()
        assert lock_clock.validate_structure() == []

    def test_copy_of_empty_clock_is_noop(self):
        context = make_context()
        target = TreeClock(context)
        target.monotone_copy(TreeClock(context))
        assert target.as_dict() == {}

    def test_copy_preserves_untouched_entries(self):
        context = make_context()
        lock_clock = TreeClock(context)
        writer = build_clock(context, 1, 3)
        writer.join(build_clock(context, 3, 1))
        lock_clock.monotone_copy(writer)
        writer.increment(1, 1)
        lock_clock_snapshot = lock_clock.as_dict()
        assert lock_clock_snapshot == {1: 3, 3: 1}
        lock_clock.monotone_copy(writer)
        assert lock_clock.as_dict() == {1: 4, 3: 1}


class TestCopyCheckMonotone:
    def test_monotone_case_uses_sublinear_path(self):
        context = make_context(with_counter=True)
        thread_clock = build_clock(context, 1, 3)
        last_write = TreeClock(context)
        last_write.copy_check_monotone(thread_clock)
        assert last_write.as_dict() == {1: 3}

    def test_non_monotone_case_falls_back_to_deep_copy(self):
        context = make_context()
        last_write = TreeClock(context)
        first_writer = build_clock(context, 1, 5)
        last_write.copy_check_monotone(first_writer)
        # A second writer that has NOT seen the first write: not monotone.
        second_writer = build_clock(context, 2, 2)
        last_write.copy_check_monotone(second_writer)
        assert last_write.as_dict() == {2: 2}
        assert last_write.root.tid == 2
        assert last_write.validate_structure() == []

    def test_copy_from_is_an_exact_structural_copy(self):
        context = make_context()
        source = build_clock(context, 1, 3)
        source.join(build_clock(context, 2, 2))
        source.join(build_clock(context, 3, 4))
        target = TreeClock(context)
        target.copy_from(source)
        assert target.as_dict() == source.as_dict()
        assert [node.tid for node in target.nodes()] == [node.tid for node in source.nodes()]
        assert target.validate_structure() == []


class TestComparison:
    def test_leq_fast_uses_root_entry(self):
        context = make_context()
        snapshot = build_clock(context, 1, 3)
        other = build_clock(context, 2, 1)
        other.join(snapshot)
        assert snapshot.leq(other)

    def test_leq_fast_on_empty_clock_is_true(self):
        context = make_context()
        assert TreeClock(context).leq(build_clock(context, 1, 1))

    def test_leq_full_pointwise(self):
        context = make_context()
        small = build_clock(context, 1, 1)
        large = build_clock(context, 2, 1)
        large.join(small)
        assert small.leq_full(large)
        assert not large.leq_full(small)


class TestIntrospection:
    def test_depth_of_empty_and_single_node(self):
        context = make_context()
        assert TreeClock(context).depth() == 0
        assert TreeClock(context, owner=1).depth() == 1

    def test_depth_grows_with_transitive_joins(self):
        context = make_context()
        c1 = build_clock(context, 1, 1)
        c2 = build_clock(context, 2, 1)
        c3 = build_clock(context, 3, 1)
        c2.join(c1)
        c3.join(c2)
        assert c3.depth() == 3

    def test_nodes_iterates_every_entry(self):
        context = make_context()
        clock = build_clock(context, 1, 1)
        clock.join(build_clock(context, 2, 1))
        clock.join(build_clock(context, 3, 1))
        assert {node.tid for node in clock.nodes()} == {1, 2, 3}
        assert clock.node_count == 3

    def test_repr_contains_root(self):
        clock = TreeClock(make_context(), owner=1)
        assert "TreeClock" in repr(clock)

    def test_node_repr_shows_bottom_for_root(self):
        clock = TreeClock(make_context(), owner=1)
        assert "⊥" in repr(clock.root)


class TestWorkAccounting:
    def test_join_work_is_proportional_to_progress(self):
        counter = WorkCounter()
        context = ClockContext(threads=list(range(1, 20)), counter=counter)
        a = build_clock(context, 1, 1)
        b = build_clock(context, 2, 1)
        counter.reset()
        a.join(b)
        # Only one new entry was learned; far fewer than k=19 entries touched.
        assert counter.entries_updated == 1
        assert counter.entries_processed < 5

    def test_early_return_join_costs_constant(self):
        counter = WorkCounter()
        context = ClockContext(threads=list(range(1, 20)), counter=counter)
        a = build_clock(context, 1, 5)
        stale = build_clock(context, 1, 5)
        counter.reset()
        a.join(stale)
        assert counter.entries_processed <= 1
        assert counter.entries_updated == 0

    def test_empty_join_records_zero_work(self):
        counter = WorkCounter()
        context = ClockContext(threads=[1, 2], counter=counter)
        a = build_clock(context, 1, 1)
        counter.reset()
        a.join(TreeClock(context))
        assert counter.entries_processed == 0
        assert counter.entries_updated == 0


def grown_clock(clock_class, context: ClockContext):
    """Thread 1's clock after learning 2 (who knew 3) and then 4.

    As a tree clock: root (1, 6) with children (4, 1, aclk 6) and
    (2, 4, aclk 5), and (3, 2, aclk 4) under 2.
    """
    c3 = clock_class(context, owner=3)
    c3.increment(3, 2)
    c2 = clock_class(context, owner=2)
    c2.increment(2, 4)
    c2.join(c3)
    c4 = clock_class(context, owner=4)
    c4.increment(4, 1)
    c1 = clock_class(context, owner=1)
    c1.increment(1, 5)
    c1.join(c2)
    c1.increment(1)
    c1.join(c4)
    return c1


def round_trip(clock, owner=None):
    """A fresh clock of the same class restored from ``clock``'s JSON snapshot."""
    restored = type(clock)(clock.context, owner=owner)
    restored.restore(json.loads(json.dumps(clock.snapshot())))
    return restored


def node_rows(clock: TreeClock):
    return [
        (node.tid, node.clk, node.aclk, None if node.parent is None else node.parent.tid)
        for node in clock.nodes()
    ]


class TestClockSnapshot:
    def test_tree_clock_snapshot_is_pre_order_rows_with_depth(self):
        clock = grown_clock(TreeClock, make_context())
        assert clock.snapshot() == [[1, 6, None, 0], [4, 1, 6, 1], [2, 4, 5, 1], [3, 2, 4, 2]]

    def test_tree_clock_restores_the_exact_tree(self):
        original = grown_clock(TreeClock, make_context())
        restored = round_trip(original, owner=1)
        assert node_rows(restored) == node_rows(original)
        assert restored.depth() == original.depth() == 3
        assert restored.validate_structure() == []

    def test_tree_clock_restore_replaces_a_non_empty_clock(self):
        context = make_context()
        restored = grown_clock(TreeClock, context)
        restored.restore(TreeClock(context).snapshot())
        assert restored.root is None
        assert restored.as_dict() == {}
        assert restored.validate_structure() == []

    def test_malformed_tree_snapshot_is_refused(self):
        clock = TreeClock(make_context())
        with pytest.raises(ValueError):
            clock.restore([[1, 1, None, 0], [2, 1, 1, 2]])  # skips a level
        with pytest.raises(ValueError):
            clock.restore([[1, 1, None, 0], [2, 1, None, 0]])  # a second root

    def test_vector_clock_keeps_entries_and_array_length(self):
        """The array length is state: a join counts it as processed entries."""
        counter = WorkCounter()
        context = ClockContext(threads=[1, 2], counter=counter)
        original = VectorClock(context, owner=1)
        original.increment(1, 3)
        other = VectorClock(context, owner=2)
        other.increment(2, 1)
        context.add_thread(3)  # the universe grows after the clocks were made
        restored = round_trip(original, owner=1)
        assert restored.snapshot() == original.snapshot() == [2, [[1, 3]]]
        counter.reset()
        original.join(other)
        restored.join(other)
        assert counter.entries_processed == 2 + 2  # neither grows to k = 3
        assert restored.as_dict() == original.as_dict() == {1: 3, 2: 1}

    @pytest.mark.parametrize("clock_class", [TreeClock, VectorClock])
    def test_join_after_restore_matches_the_original(self, clock_class):
        counter = WorkCounter()
        context = make_context()
        context.counter = counter
        original = grown_clock(clock_class, context)
        restored = round_trip(original, owner=1)
        c3 = clock_class(context, owner=3)
        c3.increment(3, 7)
        other = clock_class(context, owner=6)
        other.increment(6, 2)
        other.join(c3)
        other.increment(6)
        work = []
        for clock in (original, restored):
            counter.reset()
            clock.join(other)
            work.append((counter.entries_processed, counter.entries_updated))
        assert work[0] == work[1]
        assert restored.as_dict() == original.as_dict() == {1: 6, 2: 4, 3: 7, 4: 1, 6: 3}
        assert restored.snapshot() == original.snapshot()

    @pytest.mark.parametrize("clock_class", [TreeClock, VectorClock])
    def test_snapshot_and_restore_record_no_work(self, clock_class):
        counter = WorkCounter()
        context = make_context()
        original = grown_clock(clock_class, context)
        context.counter = counter
        round_trip(original, owner=1)
        assert counter == WorkCounter()
