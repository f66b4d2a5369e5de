"""The tree clock data structure (Algorithm 2 of the paper).

A tree clock stores the same information as a vector clock — the last
known local time of every thread — but arranges the entries in a rooted
tree whose edges record *how* that knowledge was obtained: a node ``u``
is a child of ``v`` if the time of ``u.tid`` was learned transitively
through thread ``v.tid``, and ``u.aclk`` (the *attachment clock*) is the
local time ``v.tid`` had when it learned it.

This structure enables two pruning rules during ``join`` and
``monotone_copy`` (Section 3.1):

* **direct monotonicity** — if the receiving clock already knows thread
  ``u.tid`` at time ``>= u.clk``, it also knows every descendant of ``u``
  at least as well, so the whole subtree can be skipped, and
* **indirect monotonicity** — children are kept in descending ``aclk``
  order, so as soon as a non-progressed child with ``aclk <= Get(parent)``
  is found, all remaining (older) siblings can be skipped as well.

Consequently both operations run in time proportional to the number of
entries that actually change (plus a constant per operation), which is
the basis of the vt-optimality result (Theorem 1).

The implementation below mirrors the paper's pseudocode, with the
recursive traversals made iterative (as in the authors' Java artifact)
and the child lists kept as intrusive doubly-linked lists so that both
``pushChild`` and node detachment are O(1).

Beyond the algorithmic structure, the hot path (one join or monotone
copy per synchronization event) is tuned for the constant factor, which
in CPython is interpreter overhead per operation rather than the few
entries each operation processes:

* the paper's ``getUpdatedNodes``, ``detachNodes`` and ``attachNodes``
  passes are one pruned pre-order walk over ``other`` (:meth:`_graft`):
  each progressed node is unlinked and re-attached the moment the walk
  finds it, with no intermediate stack and no second sweep;
* an insertion cursor per expanded node places its re-attached children
  in ``other``'s sibling order (the first at the front, each later one
  right after the previous), which is the order the paper's stack drain
  produces;
* each descent into a progressed node with children pushes one tuple
  frame (resume sibling, parent, the parent's *pre-op* clock for the
  indirect-monotonicity test, cursor) on the walk's own stack; a
  progressed leaf pushes nothing;
* nodes dropped by a deep copy go onto the context's shared **free
  list** and are recycled by later attaches and copies of any clock, so
  steady-state operation allocates no :class:`TreeClockNode` objects;
* :meth:`_deep_copy_from` rebuilds in place, reusing this clock's
  existing nodes, and is fully iterative (no recursion, no per-node
  closure calls), so adversarially deep trees cannot blow the stack.

The differential test harness (``tests/differential/``) pins these
optimizations to the semantics of the plain vector clock: every mutation
is cross-checked against ``VectorClock`` and ``validate_structure()``,
and against a verbatim copy of the earlier two-pass kernel (the paper's
``getUpdatedNodes``, then one fused detach + attach sweep), which must
build the same tree with the same work counts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .base import ClockContext, VectorTime


class TreeClockNode:
    """A single node of a tree clock.

    Attributes mirror the paper's ``(tid, clk, aclk)`` triple; ``aclk`` is
    ``None`` for the root.  Sibling links (``next_sibling`` /
    ``prev_sibling``) implement the ordered child list, whose head
    (``first_child``) holds the most recently attached child, i.e. the
    child with the largest attachment clock.
    """

    __slots__ = ("tid", "clk", "aclk", "parent", "first_child", "next_sibling", "prev_sibling")

    def __init__(self, tid: int, clk: int = 0, aclk: Optional[int] = None) -> None:
        self.tid = tid
        self.clk = clk
        self.aclk = aclk
        self.parent: Optional["TreeClockNode"] = None
        self.first_child: Optional["TreeClockNode"] = None
        self.next_sibling: Optional["TreeClockNode"] = None
        self.prev_sibling: Optional["TreeClockNode"] = None

    def children(self) -> Iterator["TreeClockNode"]:
        """Iterate children from the most recently attached to the oldest."""
        child = self.first_child
        while child is not None:
            yield child
            child = child.next_sibling

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aclk = "⊥" if self.aclk is None else self.aclk
        return f"(t{self.tid}, {self.clk}, {aclk})"


class TreeClock:
    """The tree clock data structure.

    Parameters
    ----------
    context:
        Shared :class:`~repro.clocks.base.ClockContext` (thread universe
        and optional work counter).
    owner:
        When given, the clock is initialized as in the paper's ``Init(t)``
        with a root node ``(owner, 0, ⊥)``; thread clocks use this form.
        Auxiliary clocks (locks, last-write clocks) pass ``None`` and
        start empty (the all-zero vector time).
    """

    SHORT_NAME = "TC"

    __slots__ = ("context", "owner", "_root", "_nodes")

    def __init__(self, context: ClockContext, owner: Optional[int] = None) -> None:
        self.context = context
        self.owner = owner
        self._root: Optional[TreeClockNode] = None
        self._nodes: Dict[int, TreeClockNode] = {}
        # The recycled-node free list lives on the shared context, so
        # per-variable auxiliary clocks stay as small as a dict plus two
        # pointers.
        if owner is not None:
            root = TreeClockNode(owner, 0, None)
            self._root = root
            self._nodes[owner] = root

    # -- basic accessors ----------------------------------------------------------

    def get(self, tid: int) -> int:
        """The recorded local time of thread ``tid`` (0 if unknown)."""
        node = self._nodes.get(tid)
        return node.clk if node is not None else 0

    def increment(self, tid: int, amount: int = 1) -> None:
        """Advance the root thread's clock (``Increment`` in the paper)."""
        if self._root is None or self._root.tid != tid:
            raise ValueError(
                f"increment of thread t{tid} on a tree clock rooted at "
                f"{'nothing' if self._root is None else f't{self._root.tid}'}"
            )
        self._root.clk += amount
        counter = self.context.counter
        if counter is not None:
            counter.record_increment()

    @property
    def root(self) -> Optional[TreeClockNode]:
        """The root node (``None`` for an empty auxiliary clock)."""
        return self._root

    @property
    def node_count(self) -> int:
        """Number of thread entries stored in the clock."""
        return len(self._nodes)

    def node_of(self, tid: int) -> Optional[TreeClockNode]:
        """The node of thread ``tid``, if present (``ThrMap`` in the paper)."""
        return self._nodes.get(tid)

    # -- comparison ----------------------------------------------------------------

    def leq(self, other: "TreeClock") -> bool:
        """The paper's constant-time ``LessThan``.

        Checks only whether the root entry of this clock is known to
        ``other``.  This is equivalent to the full pointwise comparison
        whenever this clock is a *snapshot* clock, i.e. its contents were
        copied from a thread clock at the root's event (which is how the
        HB/SHB/MAZ algorithms use it).  For arbitrary clocks use
        :meth:`leq_full`.
        """
        if self._root is None:
            return True
        return self._root.clk <= other.get(self._root.tid)

    def leq_full(self, other: "TreeClock") -> bool:
        """Full pointwise comparison ``self ⊑ other`` (Θ(size) time)."""
        return all(node.clk <= other.get(tid) for tid, node in self._nodes.items())

    # -- join ------------------------------------------------------------------------

    def join(self, other: "TreeClock") -> None:
        """In-place join ``self ← self ⊔ other`` (the paper's ``Join``).

        Requires ``other`` to satisfy the *snapshot property*: its root
        entry has progressed whenever any of its contents have (the O(1)
        direct-monotonicity check at the root relies on it).  All clocks
        maintained by the analyses satisfy this — thread clocks increment
        before every event's joins, and auxiliary clocks are copies of
        thread clocks.
        """
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
        local = self._nodes.get(other_root.tid)
        if other_root.clk <= (0 if local is None else local.clk):
            # Direct monotonicity at the root: nothing in `other` is new.
            if counter is not None:
                counter.record_join(processed=1, updated=0)
            return

        subtree_root, processed, updated = self._graft(other_root, None)
        # Place the updated subtree under the root of this clock, at the
        # front of its child list (it carries the freshest attachment clock).
        root = self._root
        if subtree_root is not root:
            subtree_root.aclk = root.clk
            self._push_child(subtree_root, root)
        if counter is not None:
            counter.record_join(processed=processed, updated=updated)

    # -- copies ------------------------------------------------------------------------

    def monotone_copy(self, other: "TreeClock") -> None:
        """In-place copy ``self ← other`` assuming ``self ⊑ other``.

        Exploits the same monotonicity pruning as :meth:`join`; the only
        difference is that the (old) root of this clock is repositioned
        even when its time has not progressed, because the root of the
        result must carry the same thread as ``other``'s root.
        """
        counter = self.context.counter
        other_root = other._root
        if other_root is None:
            # self ⊑ 0 implies self is the zero vector already.
            if counter is not None:
                counter.record_copy(processed=0, updated=0)
            return

        old_root = self._root
        new_root, processed, updated = self._graft(
            other_root, None if old_root is None else old_root.tid
        )
        new_root.aclk = None
        self._root = new_root
        if old_root is not None and old_root is not new_root and old_root.parent is None:
            # The pruned traversal never examined the old root's thread
            # (an ancestor in `other` was already fully known), so it was
            # not repositioned and would be left unreachable.  Re-attach
            # it under the new root with the freshest attachment clock:
            # at local time `new_root.clk` the new root's thread knows
            # everything this clock holds — including the old root's
            # subtree — so the aclk invariant holds, and pushing the
            # largest aclk at the front keeps the descending order.
            old_root.aclk = new_root.clk
            self._push_child(old_root, new_root)
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def copy_check_monotone(self, other: "TreeClock") -> None:
        """Copy ``other`` into this clock without assuming monotonicity.

        Performs the constant-time :meth:`leq` test first; when it holds
        the copy is a (sublinear) :meth:`monotone_copy`, otherwise it
        falls back to a linear deep copy.  Used by the SHB algorithm for
        last-write clocks, where the non-monotone case corresponds
        exactly to a write-read race (Section 5.1).
        """
        if self.leq(other):
            self.monotone_copy(other)
            return
        counter = self.context.counter
        updated, processed = self._deep_copy_from(other)
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    def copy_from(self, other: "TreeClock") -> None:
        """Unconditional deep copy of ``other`` into this clock."""
        counter = self.context.counter
        updated, processed = self._deep_copy_from(other)
        if counter is not None:
            counter.record_copy(processed=processed, updated=updated)

    # -- snapshots and introspection ------------------------------------------------------

    def as_dict(self) -> VectorTime:
        """Snapshot of the vector time represented by this clock."""
        return {tid: node.clk for tid, node in self._nodes.items() if node.clk}

    def snapshot(self) -> List[List[object]]:
        """The exact tree as pre-order ``[tid, clk, aclk, depth]`` rows.

        Children come first to last (the order :meth:`nodes` yields) and
        the root is the one row at depth 0 (``aclk`` ``None``); an empty
        clock is ``[]``.  :meth:`restore` rebuilds the same tree, so a
        restored walk does the uninterrupted walk's work.  Records no
        work.
        """
        rows: List[List[object]] = []
        if self._root is None:
            return rows
        stack: List[Tuple[TreeClockNode, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            rows.append([node.tid, node.clk, node.aclk, depth])
            # Pushed reversed, so they pop first to last.
            stack.extend(reversed([(child, depth + 1) for child in node.children()]))
        return rows

    def restore(self, rows: List[List[object]]) -> None:
        """Overwrite this clock with the tree a :meth:`snapshot` describes.

        Each row's parent is the latest row one level up, kept on a path
        stack indexed by depth, and each row goes after its previous
        sibling.  The threads must already be in the context's universe.
        Records no work.
        """
        for node in self._nodes.values():
            self._recycle(node)
        nodes: Dict[int, TreeClockNode] = {}
        self._nodes = nodes
        self._root = None
        free = self.context.tc_free
        path: List[TreeClockNode] = []
        for tid, clk, aclk, depth in rows:
            if not 0 <= depth <= len(path) or (depth == 0) != (self._root is None):
                raise ValueError(f"malformed tree-clock snapshot row {[tid, clk, aclk, depth]!r}")
            if free:
                node = free.pop()
                node.tid = tid
            else:
                node = TreeClockNode(tid)
            node.clk = clk
            node.aclk = aclk
            nodes[tid] = node
            if depth == 0:
                self._root = node
            else:
                parent = node.parent = path[depth - 1]
                previous = path[depth] if depth < len(path) else None
                node.prev_sibling = previous
                if previous is None:
                    parent.first_child = node
                else:
                    previous.next_sibling = node
                del path[depth:]
            path.append(node)

    def nodes(self) -> Iterator[TreeClockNode]:
        """Iterate all nodes in pre-order from the root, then any detached nodes.

        Children are visited first to last (most recently attached
        first), so the pre-order is the order :func:`render_tree_clock`
        prints.
        """
        seen = set()
        if self._root is not None:
            stack = [self._root]
            while stack:
                node = stack.pop()
                seen.add(node.tid)
                yield node
                # Pushed reversed, so they pop first to last.
                stack.extend(reversed(list(node.children())))
        for tid, node in self._nodes.items():
            if tid not in seen:
                yield node

    def depth(self) -> int:
        """Height of the tree (0 for an empty clock, 1 for a single root)."""
        if self._root is None:
            return 0
        best = 0
        stack: List[Tuple[TreeClockNode, int]] = [(self._root, 1)]
        while stack:
            node, level = stack.pop()
            best = max(best, level)
            for child in node.children():
                stack.append((child, level + 1))
        return best

    def validate_structure(self) -> List[str]:
        """Check internal invariants; returns a list of violation messages.

        Verified invariants: the thread map and the tree agree, parent /
        child / sibling pointers are consistent, each thread appears at
        most once, child lists are sorted by descending attachment clock,
        and every non-root reachable node carries an attachment clock.
        """
        problems: List[str] = []
        reachable: Dict[int, TreeClockNode] = {}
        if self._root is not None:
            if self._root.parent is not None:
                problems.append("root has a parent")
            if self._root.aclk is not None:
                problems.append("root has an attachment clock")
            stack = [self._root]
            while stack:
                node = stack.pop()
                if node.tid in reachable:
                    problems.append(f"thread t{node.tid} appears twice in the tree")
                    continue
                reachable[node.tid] = node
                previous_aclk: Optional[int] = None
                previous_child: Optional[TreeClockNode] = None
                for child in node.children():
                    if child.parent is not node:
                        problems.append(f"child t{child.tid} has wrong parent pointer")
                    if child.prev_sibling is not previous_child:
                        problems.append(f"child t{child.tid} has wrong prev_sibling pointer")
                    if child.aclk is None:
                        problems.append(f"non-root node t{child.tid} has no attachment clock")
                    elif previous_aclk is not None and child.aclk > previous_aclk:
                        problems.append(
                            f"children of t{node.tid} are not in descending aclk order"
                        )
                    previous_aclk = child.aclk if child.aclk is not None else previous_aclk
                    previous_child = child
                    stack.append(child)
        for tid, node in self._nodes.items():
            if node.tid != tid:
                problems.append(f"thread map entry {tid} points at node of t{node.tid}")
        for tid, node in reachable.items():
            if self._nodes.get(tid) is not node:
                problems.append(f"reachable node t{tid} is missing from the thread map")
        for tid in self._nodes:
            if self._root is not None and tid not in reachable:
                problems.append(f"thread map entry t{tid} is not reachable from the root")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeClock(root={self._root!r}, entries={len(self._nodes)})"

    # -- internal helpers -----------------------------------------------------------------

    @staticmethod
    def _push_child(child: TreeClockNode, parent: TreeClockNode) -> None:
        """The paper's ``pushChild``: attach ``child`` at the front of ``parent``'s list."""
        child.parent = parent
        child.prev_sibling = None
        child.next_sibling = parent.first_child
        if parent.first_child is not None:
            parent.first_child.prev_sibling = child
        parent.first_child = child

    def _graft(
        self, other_root: TreeClockNode, old_root_tid: Optional[int]
    ) -> Tuple[TreeClockNode, int, int]:
        """The paper's ``getUpdatedNodes`` + ``detachNodes`` + ``attachNodes`` in one walk.

        A pruned pre-order traversal of ``other``'s tree from
        ``other_root``.  Every node of ``other`` whose clock has progressed
        compared to this clock is unlinked from its local position and
        re-attached under its ``other`` parent's counterpart the moment
        the walk finds it.  When ``old_root_tid`` is given (the
        monotone-copy case) the node of that thread is repositioned even
        if it has not progressed, so that the old root lands under the
        new one.  The local counterpart of ``other_root`` itself is
        unlinked and updated but left detached; the caller places it.

        Two details keep the single pass equal to the paper's three:

        * an insertion *cursor* per expanded node: its first re-attached
          child goes to the front of the child list and each later one
          right after the previous one, so ``other``'s sibling order
          (descending ``aclk``) is kept;
        * indirect monotonicity compares a child's ``aclk`` against the
          expanded node's *pre-op* clock, which the descent carries in
          its frame, since the walk has already updated the node itself.

        Returns ``(local counterpart of other_root, entries_processed,
        entries_updated)``: one for the root plus each child-node
        examination (the "light gray" area of Figures 4 and 5, which
        defines ``TCWork``), and the entries whose clock value actually
        changed (this operation's contribution to ``VTWork``).
        """
        nodes = self._nodes
        nodes_get = nodes.get
        free = self.context.tc_free
        tid = other_root.tid
        parent = nodes_get(tid)
        if parent is None:
            parent_clk = 0
            if free:
                parent = free.pop()
                parent.tid = tid
            else:
                parent = TreeClockNode(tid)
            nodes[tid] = parent
        else:
            parent_clk = parent.clk
            old_parent = parent.parent
            if old_parent is not None:
                previous = parent.prev_sibling
                following = parent.next_sibling
                if previous is None:
                    old_parent.first_child = following
                else:
                    previous.next_sibling = following
                if following is not None:
                    following.prev_sibling = previous
                parent.parent = None
                parent.prev_sibling = None
                parent.next_sibling = None
        clk = other_root.clk
        parent.clk = clk
        updated = 0 if parent_clk == clk else 1
        processed = 1
        root = parent
        # Each descent into a progressed child with children pushes one
        # frame (resume sibling, parent, parent's pre-op clock, cursor).
        frames: List[Tuple[Optional[TreeClockNode], TreeClockNode, int, TreeClockNode]] = []
        cursor: Optional[TreeClockNode] = None
        child = other_root.first_child
        while True:
            while child is not None:
                processed += 1
                tid = child.tid
                clk = child.clk
                local = nodes_get(tid)
                before = 0 if local is None else local.clk
                if before < clk or tid == old_root_tid:
                    if local is None:
                        if free:
                            local = free.pop()
                            local.tid = tid
                        else:
                            local = TreeClockNode(tid)
                        nodes[tid] = local
                    else:
                        # Unlink from the old position (inlined sibling removal).
                        old_parent = local.parent
                        if old_parent is not None:
                            previous = local.prev_sibling
                            following = local.next_sibling
                            if previous is None:
                                old_parent.first_child = following
                            else:
                                previous.next_sibling = following
                            if following is not None:
                                following.prev_sibling = previous
                    if before != clk:
                        updated += 1
                        local.clk = clk
                    # Re-attach right after the cursor (at the front first).
                    local.aclk = child.aclk
                    local.parent = parent
                    local.prev_sibling = cursor
                    if cursor is None:
                        following = parent.first_child
                        parent.first_child = local
                    else:
                        following = cursor.next_sibling
                        cursor.next_sibling = local
                    local.next_sibling = following
                    if following is not None:
                        following.prev_sibling = local
                    cursor = local
                    if before < clk:
                        # Progressed: descend, resume at the next sibling later.
                        grandchild = child.first_child
                        if grandchild is None:
                            child = child.next_sibling
                        else:
                            frames.append((child.next_sibling, parent, parent_clk, cursor))
                            parent = local
                            parent_clk = before
                            cursor = None
                            child = grandchild
                        continue
                if child.aclk <= parent_clk:
                    # Indirect monotonicity: all remaining (older) siblings
                    # are already known to this clock.
                    break
                child = child.next_sibling
            if not frames:
                return root, processed, updated
            child, parent, parent_clk, cursor = frames.pop()

    def _recycle(self, node: TreeClockNode) -> None:
        """Clear ``node``'s links and park it on the context's free list.

        The free list is shared by every tree clock of the context —
        safe, because a parked node carries no references and no clock
        references it — so nodes dropped by one clock's deep copy are
        recycled by any clock's later attach.
        """
        node.parent = None
        node.first_child = None
        node.prev_sibling = None
        node.next_sibling = None
        node.aclk = None
        self.context.tc_free.append(node)

    def _deep_copy_from(self, other: "TreeClock") -> Tuple[int, int]:
        """Rebuild this clock as an exact structural copy of ``other``.

        Works in place: this clock's existing nodes are re-used for the
        threads that survive the copy, nodes of vanished threads are
        recycled onto the free list, and new threads draw from it —
        steady-state deep copies allocate nothing.  The traversal is
        iterative, so degenerate deep trees cannot overflow the Python
        call stack.  Returns ``(entries_changed, entries_processed)``.
        """
        if other is self:
            return 0, len(self._nodes)
        old_nodes = self._nodes
        free = self.context.tc_free
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
        nodes: Dict[int, TreeClockNode] = {}
        self._nodes = nodes
        processed = 0
        changed = 0
        # Pre-order walk over `other`, pushing children in first-to-last
        # order; popping reverses them, and attaching each at the front of
        # its parent's child list restores the original order (attachment
        # happens at pop time, so interleaving with subtrees is harmless).
        originals: List[TreeClockNode] = [other_root]
        parents: List[Optional[TreeClockNode]] = [None]
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
                    node = TreeClockNode(tid)
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
