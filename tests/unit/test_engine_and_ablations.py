"""Unit tests for the analysis engine plumbing and the ablation variants."""

import pytest

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.analysis.ablations import HBDeepCopyAnalysis, SHBDeepCopyAnalysis
from repro.analysis.engine import PartialOrderAnalysis, acquire_rule, release_rule
from repro.clocks import TreeClock, VectorClock
from repro.trace import Trace, TraceBuilder
from repro.trace import event as ev
from repro.trace.event import OpKind


def lock_hand_off(threads: int = 4, rounds: int = 6) -> Trace:
    """Threads take one lock in turn and write the variable it guards."""
    builder = TraceBuilder()
    for _ in range(rounds):
        for tid in range(1, threads + 1):
            builder.acquire(tid, "l").write(tid, "x").release(tid, "l")
    return builder.build()


class TestLockHooks:
    """Which lock rule runs: the engine's shared rules inline, or a class's own hooks."""

    def test_hb_shb_and_maz_bind_the_shared_lock_rules(self):
        for analysis_class in (HBAnalysis, SHBAnalysis, MAZAnalysis):
            assert analysis_class._on_acquire is acquire_rule
            assert analysis_class._on_release is release_rule

    def test_an_order_implementing_only_handle_event_receives_lock_events(self):
        class Recording(PartialOrderAnalysis):
            PARTIAL_ORDER = "REC"

            def _reset_state(self):
                self.seen = []

            def _handle_event(self, event, clock):
                self.seen.append((event.kind, event.target))

        trace = TraceBuilder().acquire(1, "l").read(1, "x").release(1, "l").write(2, "x").build()
        analysis = Recording(TreeClock)
        analysis.run(trace)
        assert analysis.seen == [
            (OpKind.ACQUIRE, "l"), (OpKind.READ, "x"), (OpKind.RELEASE, "l"), (OpKind.WRITE, "x"),
        ]
        assert analysis.lock_clocks == {}  # no shared rule ran for it

    @pytest.mark.parametrize("clock_class", [TreeClock, VectorClock])
    def test_a_subclass_lock_hook_override_is_called(self, clock_class):
        class CountingAcquires(HBAnalysis):
            def _reset_state(self):
                super()._reset_state()
                self.acquires = []

            def _on_acquire(self, event, clock):
                self.acquires.append(event.eid)
                super()._on_acquire(event, clock)

        trace = lock_hand_off()
        analysis = CountingAcquires(clock_class, capture_timestamps=True)
        result = analysis.run(trace)
        assert analysis.acquires == [event.eid for event in trace if event.kind is OpKind.ACQUIRE]
        baseline = HBAnalysis(clock_class, capture_timestamps=True).run(trace)
        assert result.timestamps == baseline.timestamps

    def test_hb_deep_copy_ablation_still_deep_copies_at_release(self):
        trace = lock_hand_off()
        baseline = HBAnalysis(TreeClock, capture_timestamps=True, count_work=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, capture_timestamps=True, count_work=True).run(trace)
        assert ablated.timestamps == baseline.timestamps
        assert ablated.work.entries_processed > baseline.work.entries_processed


class TestEngine:
    def test_base_class_requires_handle_event(self):
        trace = TraceBuilder().read(1, "x").build()
        with pytest.raises(NotImplementedError):
            PartialOrderAnalysis(TreeClock).run(trace)

    def test_empty_trace_produces_empty_result(self):
        result = HBAnalysis(TreeClock, capture_timestamps=True).run(Trace([]))
        assert result.num_events == 0
        assert result.timestamps == []

    def test_begin_and_end_events_only_advance_local_time(self):
        trace = Trace([ev.begin(1), ev.read(1, "x"), ev.end(1)])
        result = HBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert result.timestamps == [{1: 1}, {1: 2}, {1: 3}]

    def test_thread_clocks_are_created_lazily_and_cached(self):
        analysis = HBAnalysis(TreeClock)
        analysis.run(TraceBuilder().read(1, "x").read(2, "y").build())
        assert set(analysis.thread_clocks) == {1, 2}
        assert analysis.clock_of_thread(1) is analysis.thread_clocks[1]

    def test_lock_clocks_are_created_lazily(self):
        analysis = HBAnalysis(TreeClock)
        analysis.run(TraceBuilder().sync(1, "a").sync(1, "b").build())
        assert set(analysis.lock_clocks) == {"a", "b"}

    def test_rerun_resets_state(self):
        analysis = HBAnalysis(TreeClock)
        analysis.run(TraceBuilder().sync(1, "a").build())
        analysis.run(TraceBuilder().sync(2, "b").build())
        assert set(analysis.thread_clocks) == {2}
        assert set(analysis.lock_clocks) == {"b"}

    def test_work_counter_absent_unless_requested(self):
        result = HBAnalysis(TreeClock).run(TraceBuilder().read(1, "x").build())
        assert result.work is None
        counted = HBAnalysis(TreeClock, count_work=True).run(TraceBuilder().read(1, "x").build())
        assert counted.work is not None and counted.work.increments == 1


class TestAblationVariants:
    @pytest.fixture
    def trace(self):
        builder = TraceBuilder()
        for turn in range(20):
            tid = (turn % 3) + 1
            builder.write(tid, f"x{turn % 4}")
            builder.sync(tid, f"l{turn % 2}")
        return builder.build()

    def test_hb_deep_copy_variant_matches_baseline(self, trace):
        baseline = HBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps
        assert ablated.partial_order == "HB"

    def test_shb_deep_copy_variant_matches_baseline(self, trace):
        baseline = SHBAnalysis(TreeClock, capture_timestamps=True).run(trace)
        ablated = SHBDeepCopyAnalysis(TreeClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps
        assert ablated.partial_order == "SHB"

    def test_deep_copy_variant_does_not_do_less_work(self, trace):
        baseline = HBAnalysis(TreeClock, count_work=True).run(trace)
        ablated = HBDeepCopyAnalysis(TreeClock, count_work=True).run(trace)
        assert ablated.work.entries_processed >= baseline.work.entries_processed

    def test_ablation_variants_support_detection(self, trace):
        baseline = SHBAnalysis(TreeClock, detect=True).run(trace)
        ablated = SHBDeepCopyAnalysis(TreeClock, detect=True).run(trace)
        assert baseline.detection.race_count == ablated.detection.race_count

    def test_shb_deep_copy_ablation_deep_copies_with_a_detector(self):
        trace = lock_hand_off()
        baseline = SHBAnalysis(TreeClock, detect=True, count_work=True).run(trace)
        ablated = SHBDeepCopyAnalysis(TreeClock, detect=True, count_work=True).run(trace)
        assert ablated.detection.races == baseline.detection.races == []
        assert ablated.work.entries_processed > baseline.work.entries_processed

    def test_ablation_variants_work_with_vector_clocks(self, trace):
        baseline = HBAnalysis(VectorClock, capture_timestamps=True).run(trace)
        ablated = HBDeepCopyAnalysis(VectorClock, capture_timestamps=True).run(trace)
        assert baseline.timestamps == ablated.timestamps
