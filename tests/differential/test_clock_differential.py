"""Differential fuzzing: optimized TreeClock ≡ two-pass reference ≡ VectorClock ≡ dict model.

The tree-clock hot path is aggressively optimized (one-pass join and
monotone copy with an insertion cursor, nodes as indices into a
per-context pool with recycled free indices, in-place deep copies).
None of that may ever be observable: after *every* mutation a tree clock
must represent exactly the vector time the plain vector clock and the
reference dictionary model compute, and its structural invariants
(:meth:`TreeClock.validate_structure`) must hold.  Checking after every
single mutation — not just at the end — is what catches bugs in recycled
pool indices: an index recycled with a stale link corrupts the tree long
before it changes the final vector time.

Equal vector times do not pin the kernel's *work*: a tree with a
different shape prunes differently later, and ``TCWork`` could drift
while every vector time stays right.  So the module also keeps the
earlier two-pass kernel verbatim on object nodes
(:class:`ReferenceTreeClock`: the paper's ``getUpdatedNodes`` gathers
the progressed nodes onto a stack, then one sweep fuses ``detachNodes``
and ``attachNodes``) and requires the optimized kernel to build the same
tree — equal :meth:`~TreeClock.snapshot` rows ``[tid, clk, aclk,
depth]`` in pre-order — with the same ``entries_processed`` /
``entries_updated`` counts.

Two granularities:

* **op-level** — hypothesis generates raw clock-operation sequences
  (increment / join / monotone-copy / copy-check-monotone over thread
  and auxiliary clocks) and replays them against TreeClock, the
  reference, VectorClock and a plain-dict model simultaneously;
* **trace-level** — random well-formed traces run through the real
  HB/SHB/MAZ analyses with all three clock classes, comparing per-event
  timestamps, race streams, the data-structure-independent ``VTWork``
  counter, and against the reference the full work counters and the
  shape of every thread, lock, last-write and last-read clock.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.clocks import ClockContext, TreeClock, VectorClock, WorkCounter
from repro.clocks.base import VectorTime, vt_join, vt_leq
from util_traces import make_random_trace


class ReferenceNode:
    """A tree-clock node as an object: ``(tid, clk, aclk)`` plus parent and sibling links."""

    __slots__ = ("tid", "clk", "aclk", "parent", "first_child", "next_sibling", "prev_sibling")

    def __init__(self, tid: int, clk: int = 0, aclk: Optional[int] = None) -> None:
        self.tid = tid
        self.clk = clk
        self.aclk = aclk
        self.parent: Optional["ReferenceNode"] = None
        self.first_child: Optional["ReferenceNode"] = None
        self.next_sibling: Optional["ReferenceNode"] = None
        self.prev_sibling: Optional["ReferenceNode"] = None

    def children(self) -> Iterator["ReferenceNode"]:
        child = self.first_child
        while child is not None:
            yield child
            child = child.next_sibling


class ReferenceTreeClock:
    """The two-pass tree-clock kernel on object nodes, kept verbatim as the oracle.

    ``join`` and ``monotone_copy`` are the paper's ``getUpdatedNodes``
    (a pruned pre-order traversal that stacks the progressed nodes of
    ``other``, children before parents) followed by ``detachNodes`` +
    ``attachNodes`` fused into one sweep that pops parents first and
    pushes each node at the front of its new parent's child list.  Its
    work lists are fresh per operation.  It shares nothing with
    :class:`TreeClock`: nodes are :class:`ReferenceNode` objects, deep
    copies rebuild in place, and dropped nodes go onto a free list that
    every reference clock of the context shares.
    """

    SHORT_NAME = "TC"

    __slots__ = ("context", "owner", "_root", "_nodes", "_free")

    def __init__(self, context: ClockContext, owner: Optional[int] = None) -> None:
        self.context = context
        self.owner = owner
        self._root: Optional[ReferenceNode] = None
        self._nodes: Dict[int, ReferenceNode] = {}
        if not hasattr(context, "reference_free"):
            context.reference_free = []  # type: ignore[attr-defined]
        self._free: List[ReferenceNode] = context.reference_free  # type: ignore[attr-defined]
        if owner is not None:
            root = ReferenceNode(owner, 0, None)
            self._root = root
            self._nodes[owner] = root

    def get(self, tid: int) -> int:
        node = self._nodes.get(tid)
        return node.clk if node is not None else 0

    def increment(self, tid: int, amount: int = 1) -> None:
        if self._root is None or self._root.tid != tid:
            raise ValueError(f"increment of thread t{tid} on a reference clock not rooted at it")
        self._root.clk += amount
        counter = self.context.counter
        if counter is not None:
            counter.record_increment()

    def leq(self, other: "ReferenceTreeClock") -> bool:
        if self._root is None:
            return True
        return self._root.clk <= other.get(self._root.tid)

    def as_dict(self) -> VectorTime:
        return {tid: node.clk for tid, node in self._nodes.items() if node.clk}

    def snapshot(self) -> List[List[object]]:
        """Pre-order ``[tid, clk, aclk, depth]`` rows, the format of :meth:`TreeClock.snapshot`."""
        rows: List[List[object]] = []
        if self._root is None:
            return rows
        stack: List[Tuple[ReferenceNode, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            rows.append([node.tid, node.clk, node.aclk, depth])
            stack.extend(reversed([(child, depth + 1) for child in node.children()]))
        return rows

    def join(self, other: "ReferenceTreeClock") -> None:
        counter = self.context.counter
        other_root = other._root
        if other_root is None:
            # Joining the all-zero vector time is a no-op.
            if counter is not None:
                counter.record_join(processed=0, updated=0)
            return
        if self._root is None:
            # An un-owned empty clock has no root to attach under; the join
            # degenerates to a full copy.  The partial-order algorithms never
            # hit this case (only thread clocks, which own a root, join).
            updated, processed = self._deep_copy_from(other)
            if counter is not None:
                counter.record_join(processed=processed, updated=updated)
            return
        if other_root.clk <= self.get(other_root.tid):
            # Direct monotonicity at the root: nothing in `other` is new.
            if counter is not None:
                counter.record_join(processed=1, updated=0)
            return

        stack: List[ReferenceNode] = []
        processed = 1 + self._gather_updated_nodes(stack, other_root, old_root_tid=None)
        updated = self._apply_updated_nodes(stack)

        # Place the updated subtree under the root of this clock, at the
        # front of its child list (it carries the freshest attachment clock).
        subtree_root = self._nodes[other_root.tid]
        root = self._root
        if subtree_root is not root:
            subtree_root.aclk = root.clk
            self._push_child(subtree_root, root)
        if counter is not None:
            counter.record_join(processed=processed, updated=updated)

    def monotone_copy(self, other: "ReferenceTreeClock") -> None:
        counter = self.context.counter
        other_root = other._root
        if other_root is None:
            # self ⊑ 0 implies self is the zero vector already.
            if counter is not None:
                counter.record_copy(processed=0, updated=0)
            return

        old_root = self._root
        stack: List[ReferenceNode] = []
        processed = 1 + self._gather_updated_nodes(
            stack, other_root, old_root_tid=None if old_root is None else old_root.tid
        )
        updated = self._apply_updated_nodes(stack)

        new_root = self._nodes[other_root.tid]
        new_root.parent = None
        new_root.aclk = None
        self._root = new_root
        if old_root is not None and old_root is not new_root and old_root.parent is None:
            # The pruned traversal never examined the old root's thread
            # (an ancestor in `other` was already fully known), so it was
            # not repositioned and would be left unreachable.  Re-attach
            # it under the new root with the freshest attachment clock.
            old_root.aclk = new_root.clk
            self._push_child(old_root, new_root)
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def copy_check_monotone(self, other: "ReferenceTreeClock") -> None:
        if self.leq(other):
            self.monotone_copy(other)
            return
        counter = self.context.counter
        updated, processed = self._deep_copy_from(other)
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def copy_from(self, other: "ReferenceTreeClock") -> None:
        counter = self.context.counter
        updated, processed = self._deep_copy_from(other)
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def _gather_updated_nodes(
        self,
        stack: List[ReferenceNode],
        other_root: ReferenceNode,
        old_root_tid: Optional[int],
    ) -> int:
        examined = 0
        nodes_get = self._nodes.get
        stack_push = stack.append
        # Each frame is (node_of_other, next_child_to_examine), kept as
        # two parallel lists.
        fnodes: List[ReferenceNode] = []
        fchildren: List[Optional[ReferenceNode]] = []
        fnodes_push = fnodes.append
        fchildren_push = fchildren.append
        fnodes_push(other_root)
        fchildren_push(other_root.first_child)
        while fnodes:
            node = fnodes.pop()
            child = fchildren.pop()
            descended = False
            while child is not None:
                examined += 1
                local = nodes_get(child.tid)
                if (0 if local is None else local.clk) < child.clk:
                    # Progressed: recurse into the child, resume this node later.
                    fnodes_push(node)
                    fchildren_push(child.next_sibling)
                    fnodes_push(child)
                    fchildren_push(child.first_child)
                    descended = True
                    break
                if old_root_tid is not None and child.tid == old_root_tid:
                    # Monotone copy: the old root must be repositioned even
                    # though its clock has not progressed.
                    stack_push(child)
                aclk = child.aclk
                if aclk is not None:
                    parent_local = nodes_get(node.tid)
                    if aclk <= (0 if parent_local is None else parent_local.clk):
                        # Indirect monotonicity: all remaining (older) siblings
                        # are already known to this clock.
                        break
                child = child.next_sibling
            if not descended:
                stack_push(node)
        return examined

    def _apply_updated_nodes(self, stack: List[ReferenceNode]) -> int:
        updated = 0
        nodes = self._nodes
        nodes_get = nodes.get
        free = self._free
        while stack:
            other_node = stack.pop()
            tid = other_node.tid
            local = nodes_get(tid)
            if local is None:
                if free:
                    local = free.pop()
                    local.tid = tid
                    local.clk = 0
                    local.aclk = None
                else:
                    local = ReferenceNode(tid)
                nodes[tid] = local
            else:
                # Unlink from the old position (inlined sibling removal).
                parent = local.parent
                if parent is not None:
                    previous = local.prev_sibling
                    following = local.next_sibling
                    if previous is not None:
                        previous.next_sibling = following
                    else:
                        parent.first_child = following
                    if following is not None:
                        following.prev_sibling = previous
                    local.parent = None
                    local.prev_sibling = None
                    local.next_sibling = None
            if local.clk != other_node.clk:
                updated += 1
                local.clk = other_node.clk
            other_parent = other_node.parent
            if other_parent is not None:
                local.aclk = other_node.aclk
                parent_local = nodes[other_parent.tid]
                # Inlined pushChild.
                local.parent = parent_local
                local.prev_sibling = None
                head = parent_local.first_child
                local.next_sibling = head
                if head is not None:
                    head.prev_sibling = local
                parent_local.first_child = local
        return updated

    @staticmethod
    def _push_child(child: ReferenceNode, parent: ReferenceNode) -> None:
        child.parent = parent
        child.prev_sibling = None
        child.next_sibling = parent.first_child
        if parent.first_child is not None:
            parent.first_child.prev_sibling = child
        parent.first_child = child

    def _recycle(self, node: ReferenceNode) -> None:
        node.parent = None
        node.first_child = None
        node.prev_sibling = None
        node.next_sibling = None
        node.aclk = None
        self._free.append(node)

    def _deep_copy_from(self, other: "ReferenceTreeClock") -> Tuple[int, int]:
        """In-place structural copy; returns ``(entries_changed, entries_processed)``."""
        if other is self:
            return 0, len(self._nodes)
        old_nodes = self._nodes
        free = self._free
        other_root = other._root
        if other_root is None:
            # self becomes the all-zero vector time: every node is dropped.
            changed = 0
            for node in old_nodes.values():
                if node.clk:
                    changed += 1
                self._recycle(node)
            self._nodes = {}
            self._root = None
            return changed, 0
        nodes: Dict[int, ReferenceNode] = {}
        self._nodes = nodes
        processed = 0
        changed = 0
        # Pre-order walk over `other`, pushing children in first-to-last
        # order; popping reverses them, and attaching each at the front of
        # its parent's child list restores the original order.
        originals: List[ReferenceNode] = [other_root]
        parents: List[Optional[ReferenceNode]] = [None]
        while originals:
            original = originals.pop()
            parent_copy = parents.pop()
            tid = original.tid
            node = old_nodes.pop(tid, None)
            if node is None:
                old_clk = 0
                if free:
                    node = free.pop()
                    node.tid = tid
                else:
                    node = ReferenceNode(tid)
            else:
                old_clk = node.clk
            processed += 1
            if old_clk != original.clk:
                changed += 1
            nodes[tid] = node
            node.clk = original.clk
            node.aclk = original.aclk
            node.parent = parent_copy
            node.first_child = None
            node.prev_sibling = None
            if parent_copy is None:
                node.next_sibling = None
                self._root = node
            else:
                head = parent_copy.first_child
                node.next_sibling = head
                if head is not None:
                    head.prev_sibling = node
                parent_copy.first_child = node
            child = original.first_child
            while child is not None:
                originals.append(child)
                parents.append(node)
                child = child.next_sibling
        # Threads of the old tree that `other` does not know: recycle.
        for node in old_nodes.values():
            if node.clk:
                changed += 1
            self._recycle(node)
        return changed, processed


def _clock_maps(analysis) -> Dict[Tuple[str, object], TreeClock]:
    """Every thread, lock, last-write and last-read clock of a finished run."""
    clocks: Dict[Tuple[str, object], TreeClock] = {}
    for label, attribute in (
        ("thread", "thread_clocks"),
        ("lock", "lock_clocks"),
        ("write", "_last_write_clocks"),
        ("read", "_last_read_clocks"),
    ):
        for key, clock in getattr(analysis, attribute, {}).items():
            clocks[(label, key)] = clock
    return clocks


def _assert_same_work(actual: WorkCounter, expected: WorkCounter, where: str) -> None:
    assert (actual.entries_processed, actual.entries_updated) == (
        expected.entries_processed,
        expected.entries_updated,
    ), f"TreeClock work diverged from the two-pass reference {where}"


NUM_THREADS = 4
NUM_AUX = 3

#: Opcodes of the op-level tests: "inc" (thread increments), "join_aux"
#: (thread joins aux), "join_thread" (thread joins thread), "copy_aux"
#: (aux <- thread; monotone when the model says it is, checked
#: otherwise), "copy_check" (aux <- thread via copy_check_monotone).
OPCODES = ["inc", "inc", "inc", "join_aux", "join_thread", "copy_aux", "copy_check"]


def _new_universe(num_threads: int = NUM_THREADS):
    """Fresh TC / reference / VC / model universes over the same threads and aux slots."""
    threads = list(range(1, num_threads + 1))
    tc_context = ClockContext(threads=list(threads), counter=WorkCounter())
    ref_context = ClockContext(threads=list(threads), counter=WorkCounter())
    vc_context = ClockContext(threads=list(threads))
    tc = {tid: TreeClock(tc_context, owner=tid) for tid in threads}
    ref = {tid: ReferenceTreeClock(ref_context, owner=tid) for tid in threads}
    vc = {tid: VectorClock(vc_context, owner=tid) for tid in threads}
    model: Dict[int, VectorTime] = {tid: {} for tid in threads}
    for aux in range(NUM_AUX):
        key = f"aux{aux}"
        tc[key] = TreeClock(tc_context, owner=None)
        ref[key] = ReferenceTreeClock(ref_context, owner=None)
        vc[key] = VectorClock(vc_context, owner=None)
        model[key] = {}
    return threads, tc, ref, vc, model


#: One op: (opcode, actor, target).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(OPCODES),
        st.integers(min_value=1, max_value=NUM_THREADS),
        st.integers(min_value=0, max_value=max(NUM_AUX - 1, NUM_THREADS)),
    ),
    min_size=1,
    max_size=120,
)


def _assert_agree(key, tc, ref, vc, model) -> None:
    tc_dict = tc[key].as_dict()
    vc_dict = vc[key].as_dict()
    expected = {tid: value for tid, value in model[key].items() if value}
    assert tc_dict == expected, f"TreeClock diverged from model on {key}"
    assert vc_dict == expected, f"VectorClock diverged from model on {key}"
    problems = tc[key].validate_structure()
    assert problems == [], f"TreeClock invariants violated on {key}: {problems}"
    assert tc[key].snapshot() == ref[key].snapshot(), f"TreeClock shape diverged from the reference on {key}"


def _replay_in_lockstep(ops: List[Tuple[str, int, int]], num_threads: int = NUM_THREADS) -> None:
    """Replay ops against TC, the reference, VC and the dict model, checking after each."""
    threads, tc, ref, vc, model = _new_universe(num_threads)

    def bump(tid: int) -> None:
        tc[tid].increment(tid)
        ref[tid].increment(tid)
        vc[tid].increment(tid)
        model[tid][tid] = model[tid].get(tid, 0) + 1

    for opcode, actor, target in ops:
        if opcode in ("join_aux", "join_thread"):
            # Mirror the engine's feed() discipline: a thread clock is
            # incremented before every event's joins, which maintains the
            # snapshot property TreeClock.join's O(1) root check relies
            # on (a clock's root progresses whenever its contents do).
            bump(actor)
        if opcode == "inc":
            bump(actor)
            touched = [actor]
        elif opcode == "join_aux":
            aux = f"aux{target % NUM_AUX}"
            tc[actor].join(tc[aux])
            ref[actor].join(ref[aux])
            vc[actor].join(vc[aux])
            model[actor] = vt_join(model[actor], model[aux])
            touched = [actor]
        elif opcode == "join_thread":
            other = threads[target % num_threads]
            if other != actor:
                tc[actor].join(tc[other])
                ref[actor].join(ref[other])
                vc[actor].join(vc[other])
                model[actor] = vt_join(model[actor], model[other])
            touched = [actor]
        elif opcode == "copy_aux":
            aux = f"aux{target % NUM_AUX}"
            if vt_leq(model[aux], model[actor]):
                # The release pattern: the precondition aux ⊑ C_t holds,
                # so the sublinear monotone copy is legal.
                tc[aux].monotone_copy(tc[actor])
                ref[aux].monotone_copy(ref[actor])
                vc[aux].monotone_copy(vc[actor])
            else:
                tc[aux].copy_check_monotone(tc[actor])
                ref[aux].copy_check_monotone(ref[actor])
                vc[aux].copy_check_monotone(vc[actor])
            model[aux] = dict(model[actor])
            touched = [aux]
        else:  # copy_check
            aux = f"aux{target % NUM_AUX}"
            tc[aux].copy_check_monotone(tc[actor])
            ref[aux].copy_check_monotone(ref[actor])
            vc[aux].copy_check_monotone(vc[actor])
            model[aux] = dict(model[actor])
            touched = [aux]
        for key in touched:
            _assert_agree(key, tc, ref, vc, model)
        _assert_same_work(
            tc[actor].context.counter, ref[actor].context.counter, f"after {opcode} by t{actor}"
        )
    for key in list(model):
        _assert_agree(key, tc, ref, vc, model)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_op_sequences_tc_equals_vc_equals_model(ops: List[Tuple[str, int, int]]) -> None:
    """Replay raw op sequences against TC, the reference, VC and the dict model in lockstep."""
    _replay_in_lockstep(ops)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_long_op_sequences_tc_equals_reference(seed: int) -> None:
    """Seeded 300-op sequences over 8 threads, checked like the test above.

    Hypothesis shrinks :data:`_OPS` towards short sequences, and four
    threads rarely grow a child list in which the order of re-attached
    siblings matters.  Longer sequences over more threads do: they are
    what tell an order-preserving kernel from one that only computes the
    right vector times.
    """
    rng = random.Random(seed)
    num_threads = 8
    ops = [
        (rng.choice(OPCODES), rng.randint(1, num_threads), rng.randrange(num_threads))
        for _ in range(300)
    ]
    _replay_in_lockstep(ops, num_threads)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fork_join=st.booleans(),
)
@pytest.mark.parametrize("analysis_class", [HBAnalysis, SHBAnalysis, MAZAnalysis])
def test_analyses_tc_equals_vc_event_for_event(analysis_class, seed: int, fork_join: bool) -> None:
    """Full analyses: per-event timestamps, race streams and VTWork agree;
    TC's work and every clock's shape equal the two-pass reference's."""
    trace = make_random_trace(seed, num_events=120, include_fork_join=fork_join)
    results = {}
    analyses = {}
    for clock_class in (TreeClock, ReferenceTreeClock, VectorClock):
        analysis = analysis_class(
            clock_class, capture_timestamps=True, count_work=True, detect=True
        )
        results[clock_class] = analysis.run(trace)
        analyses[clock_class] = analysis
    _assert_same_work(results[TreeClock].work, results[ReferenceTreeClock].work, "on the trace")
    tc_clocks = _clock_maps(analyses[TreeClock])
    ref_clocks = _clock_maps(analyses[ReferenceTreeClock])
    assert tc_clocks.keys() == ref_clocks.keys()
    for key, clock in tc_clocks.items():
        assert clock.snapshot() == ref_clocks[key].snapshot(), f"shape of {key} diverged from the reference"
    tc_result = results[TreeClock]
    vc_result = results[VectorClock]
    assert tc_result.timestamps == vc_result.timestamps
    tc_races = [(r.variable, r.prior_tid, r.prior_local_time, r.event_eid) for r in tc_result.detection.races]
    vc_races = [(r.variable, r.prior_tid, r.prior_local_time, r.event_eid) for r in vc_result.detection.races]
    assert tc_races == vc_races
    assert tc_result.detection.checks == vc_result.detection.checks
    # VTWork (entries actually changed) is data-structure independent
    # (Section 4 of the paper); TCWork/VCWork legitimately differ.
    assert tc_result.work.entries_updated == vc_result.work.entries_updated


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_incremental_feed_validates_after_every_event(seed: int) -> None:
    """Feed event-by-event; the fed thread's TC must match VC and validate."""
    trace = make_random_trace(seed, num_events=100)
    tc_analysis = SHBAnalysis(TreeClock)
    vc_analysis = SHBAnalysis(VectorClock)
    tc_analysis.begin(threads=trace.threads, trace_name=trace.name)
    vc_analysis.begin(threads=trace.threads, trace_name=trace.name)
    for position, event in enumerate(trace):
        tc_analysis.feed(event)
        vc_analysis.feed(event)
        tc_clock = tc_analysis.thread_clocks[event.tid]
        vc_clock = vc_analysis.thread_clocks[event.tid]
        assert tc_clock.as_dict() == vc_clock.as_dict(), f"divergence at event {position}"
        problems = tc_clock.validate_structure()
        assert problems == [], f"invariant violation at event {position}: {problems}"
        if position % 16 == 0:
            for tid, clock in tc_analysis.thread_clocks.items():
                assert clock.validate_structure() == [], f"thread t{tid} corrupt at event {position}"
            for lock, clock in tc_analysis.lock_clocks.items():
                assert clock.validate_structure() == [], f"lock {lock} corrupt at event {position}"
    tc_analysis.finish()
    vc_analysis.finish()
