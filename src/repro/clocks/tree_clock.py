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

**Node layout.**  A node is an ``int`` index into the
:class:`TreeClockPool` of the clocks' :class:`~repro.clocks.base.ClockContext`:
seven parallel lists (``tid``, ``clk``, ``aclk``, ``parent``,
``first_child``, ``next_sibling``, ``prev_sibling``) hold its fields, and
``None`` is the nil link and the root's ``aclk``.  A node object with
parent and sibling back-links would be a container the cyclic garbage
collector tracks, and a long walk keeps tens of thousands of them alive,
which every full collection then traverses: on the race-detecting
perfbench access-detect walks that was 44% of the tree-clock walk time.
Indices are plain ints, so a tree clock adds one tracked object (itself)
however many entries it holds, its thread map (``tid`` → index, ints
only) stays untracked, and a finished run is freed by reference
counting.  The price is one more bytecode per stored field than a slot
store, which shows where grafts are large and allocation is rare.
Indices mean nothing outside their context, so operations between
clocks of two contexts are refused.  :class:`TreeClockNode` is a read-only view built
on demand for introspection (:attr:`TreeClock.root`,
:meth:`TreeClock.node_of`, :meth:`TreeClock.nodes`, the renderer); no
hot path builds one.

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
* the walk binds the pool's lists to locals once, so a field access is
  one list subscript; the clock caches its root's thread (``_root_tid``)
  and the pool's ``clk`` list (``_clk``), so :meth:`TreeClock.get`,
  :meth:`~TreeClock.increment`, :meth:`~TreeClock.leq` and ``join``'s
  direct-monotonicity exit never index the ``tid`` list;
* indices dropped by a deep copy or a restore go onto the pool's shared
  **free list**, links and ``aclk`` reset, and are recycled by later
  attaches and copies of any clock of the context; the pool grows all
  seven lists in one geometric step when the free list is empty;
* :meth:`_deep_copy_from` rebuilds in place, reusing this clock's
  existing nodes, and is fully iterative (no recursion, no per-node
  closure calls), so adversarially deep trees cannot blow the stack.

The differential test harness (``tests/differential/``) pins these
optimizations to the semantics of the plain vector clock: every mutation
is cross-checked against ``VectorClock`` and ``validate_structure()``,
and against a self-contained copy of the earlier two-pass kernel on
node objects (the paper's ``getUpdatedNodes``, then one fused detach +
attach sweep), which must build the same tree — equal
:meth:`~TreeClock.snapshot` rows — with the same work counts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .base import ClockContext, VectorTime

#: Nodes added per growth step of an empty pool; later steps double it.
_FIRST_POOL_SIZE = 64


class TreeClockPool(NamedTuple):
    """Struct-of-arrays storage of every tree-clock node of one context.

    Node ``i`` is ``(tid[i], clk[i], aclk[i])`` with links ``parent[i]``,
    ``first_child[i]``, ``next_sibling[i]`` and ``prev_sibling[i]``, each
    another index or ``None``.  ``free`` holds the indices no clock
    uses; a free index has ``None`` links and ``aclk``.  A walk binds
    all eight lists to locals in one tuple unpack.  Clock operations are
    single-threaded within one analysis run, so one pool per context
    serves every tree clock of the run.
    """

    tid: List[Optional[int]]
    clk: List[Optional[int]]
    aclk: List[Optional[int]]
    parent: List[Optional[int]]
    first_child: List[Optional[int]]
    next_sibling: List[Optional[int]]
    prev_sibling: List[Optional[int]]
    free: List[int]

    @classmethod
    def empty(cls) -> "TreeClockPool":
        return cls([], [], [], [], [], [], [], [])

    def grow(self) -> int:
        """Add one geometric step of nodes; returns one, the rest go on the free list."""
        start = len(self.tid)
        extra = start or _FIRST_POOL_SIZE
        nils = [None] * extra
        for column in self[:7]:  # every column but the free list
            column.extend(nils)
        # Pushed highest first, so the lowest indices are handed out first.
        self.free.extend(range(start + extra - 1, start, -1))
        return start


class TreeClockNode:
    """A read-only view of one node of a tree clock.

    Attributes mirror the paper's ``(tid, clk, aclk)`` triple; ``aclk`` is
    ``None`` for the root.  ``next_sibling`` links the ordered child
    list, whose head (``first_child``) holds the most recently attached
    child, i.e. the child with the largest attachment clock.  Views are
    built on demand over the context's :class:`TreeClockPool` and read
    the node's current fields; two views of the same node compare equal.
    """

    __slots__ = ("_pool", "_index")

    def __init__(self, pool: TreeClockPool, index: int) -> None:
        self._pool = pool
        self._index = index

    @property
    def tid(self) -> int:
        return self._pool.tid[self._index]  # type: ignore[return-value]

    @property
    def clk(self) -> int:
        return self._pool.clk[self._index]  # type: ignore[return-value]

    @property
    def aclk(self) -> Optional[int]:
        return self._pool.aclk[self._index]

    @property
    def parent(self) -> Optional["TreeClockNode"]:
        return _view(self._pool, self._pool.parent[self._index])

    @property
    def first_child(self) -> Optional["TreeClockNode"]:
        return _view(self._pool, self._pool.first_child[self._index])

    @property
    def next_sibling(self) -> Optional["TreeClockNode"]:
        return _view(self._pool, self._pool.next_sibling[self._index])

    def children(self) -> Iterator["TreeClockNode"]:
        """Iterate children from the most recently attached to the oldest."""
        pool = self._pool
        child = pool.first_child[self._index]
        while child is not None:
            yield TreeClockNode(pool, child)
            child = pool.next_sibling[child]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeClockNode):
            return NotImplemented
        return other._pool is self._pool and other._index == self._index

    def __hash__(self) -> int:
        return hash((id(self._pool), self._index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aclk = "⊥" if self.aclk is None else self.aclk
        return f"(t{self.tid}, {self.clk}, {aclk})"


def _view(pool: TreeClockPool, index: Optional[int]) -> Optional[TreeClockNode]:
    return None if index is None else TreeClockNode(pool, index)


class TreeClock:
    """The tree clock data structure.

    Parameters
    ----------
    context:
        Shared :class:`~repro.clocks.base.ClockContext` (thread universe,
        optional work counter, and the node pool every tree clock of the
        context draws from).
    owner:
        When given, the clock is initialized as in the paper's ``Init(t)``
        with a root node ``(owner, 0, ⊥)``; thread clocks use this form.
        Auxiliary clocks (locks, last-write clocks) pass ``None`` and
        start empty (the all-zero vector time).
    """

    SHORT_NAME = "TC"

    __slots__ = ("context", "owner", "_pool", "_clk", "_root", "_root_tid", "_nodes")

    def __init__(self, context: ClockContext, owner: Optional[int] = None) -> None:
        self.context = context
        self.owner = owner
        pool = context.tc_pool
        if pool is None:
            pool = context.tc_pool = TreeClockPool.empty()
        self._pool: TreeClockPool = pool
        self._clk = pool.clk
        self._root: Optional[int] = None
        self._root_tid: Optional[int] = None
        # Ints only, so CPython leaves the dict untracked by the collector.
        self._nodes: Dict[int, int] = {}
        if owner is not None:
            free = pool.free
            root = free.pop() if free else pool.grow()
            pool.tid[root] = owner
            pool.clk[root] = 0
            self._root = root
            self._root_tid = owner
            self._nodes[owner] = root

    # -- basic accessors ----------------------------------------------------------

    def get(self, tid: int) -> int:
        """The recorded local time of thread ``tid`` (0 if unknown)."""
        node = self._nodes.get(tid)
        return 0 if node is None else self._clk[node]

    def increment(self, tid: int, amount: int = 1) -> None:
        """Advance the root thread's clock (``Increment`` in the paper)."""
        if self._root_tid != tid:
            raise ValueError(
                f"increment of thread t{tid} on a tree clock rooted at "
                f"{'nothing' if self._root is None else f't{self._root_tid}'}"
            )
        self._clk[self._root] += amount  # type: ignore[index]
        counter = self.context.counter
        if counter is not None:
            counter.record_increment()

    @property
    def root(self) -> Optional[TreeClockNode]:
        """A view of the root node (``None`` for an empty auxiliary clock)."""
        return _view(self._pool, self._root)

    @property
    def node_count(self) -> int:
        """Number of thread entries stored in the clock."""
        return len(self._nodes)

    def node_of(self, tid: int) -> Optional[TreeClockNode]:
        """A view of the node of thread ``tid``, if present (``ThrMap`` in the paper)."""
        return _view(self._pool, self._nodes.get(tid))

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
        root = self._root
        if root is None:
            return True
        return self._clk[root] <= other.get(self._root_tid)  # type: ignore[arg-type]

    def leq_full(self, other: "TreeClock") -> bool:
        """Full pointwise comparison ``self ⊑ other`` (Θ(size) time)."""
        clk = self._clk
        return all(clk[node] <= other.get(tid) for tid, node in self._nodes.items())

    # -- join ------------------------------------------------------------------------

    def join(self, other: "TreeClock") -> None:
        """In-place join ``self ← self ⊔ other`` (the paper's ``Join``).

        Requires ``other`` to satisfy the *snapshot property*: its root
        entry has progressed whenever any of its contents have (the O(1)
        direct-monotonicity check at the root relies on it).  All clocks
        maintained by the analyses satisfy this — thread clocks increment
        before every event's joins, and auxiliary clocks are copies of
        thread clocks.  Both clocks must share one context.
        """
        context = self.context
        if other.context is not context:
            raise ValueError("cannot join tree clocks of different clock contexts")
        counter = context.counter
        other_root = other._root
        if other_root is None:
            # Joining the all-zero vector time is a no-op.
            if counter is not None:
                counter.record_join(processed=0, updated=0)
            return
        root = self._root
        if root is None:
            # An un-owned empty clock has no root to attach under; the join
            # degenerates to a full copy.  The partial-order algorithms never
            # hit this case (only thread clocks, which own a root, join).
            updated, processed = self._deep_copy_from(other)
            if counter is not None:
                counter.record_join(processed=processed, updated=updated)
            return
        clk = self._clk
        local = self._nodes.get(other._root_tid)  # type: ignore[arg-type]
        if clk[other_root] <= (0 if local is None else clk[local]):
            # Direct monotonicity at the root: nothing in `other` is new.
            if counter is not None:
                counter.record_join(processed=1, updated=0)
            return

        subtree_root, processed, updated = self._graft(other_root, None)
        # Place the updated subtree under the root of this clock, at the
        # front of its child list (it carries the freshest attachment clock).
        if subtree_root != root:
            self._pool.aclk[subtree_root] = clk[root]
            self._push_child(subtree_root, root)
        if counter is not None:
            counter.record_join(processed=processed, updated=updated)

    # -- copies ------------------------------------------------------------------------

    def monotone_copy(self, other: "TreeClock") -> None:
        """In-place copy ``self ← other`` assuming ``self ⊑ other``.

        Exploits the same monotonicity pruning as :meth:`join`; the only
        difference is that the (old) root of this clock is repositioned
        even when its time has not progressed, because the root of the
        result must carry the same thread as ``other``'s root.  Both
        clocks must share one context.
        """
        context = self.context
        if other.context is not context:
            raise ValueError("cannot copy tree clocks across clock contexts")
        counter = context.counter
        other_root = other._root
        if other_root is None:
            # self ⊑ 0 implies self is the zero vector already.
            if counter is not None:
                counter.record_copy(processed=0, updated=0)
            return

        old_root = self._root
        new_root, processed, updated = self._graft(other_root, self._root_tid)
        self._root = new_root
        self._root_tid = other._root_tid
        pool = self._pool
        if old_root is not None and old_root != new_root and pool.parent[old_root] is None:
            # The pruned traversal never examined the old root's thread
            # (an ancestor in `other` was already fully known), so it was
            # not repositioned and would be left unreachable.  Re-attach
            # it under the new root with the freshest attachment clock:
            # at local time `new_root.clk` the new root's thread knows
            # everything this clock holds — including the old root's
            # subtree — so the aclk invariant holds, and pushing the
            # largest aclk at the front keeps the descending order.
            pool.aclk[old_root] = self._clk[new_root]
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
        clk = self._clk
        return {tid: clk[node] for tid, node in self._nodes.items() if clk[node]}

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
        pool = self._pool
        tids, clks, aclks = pool.tid, pool.clk, pool.aclk
        stack: List[Tuple[int, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            rows.append([tids[node], clks[node], aclks[node], depth])
            # Pushed reversed, so they pop first to last.
            stack.extend(reversed([(child, depth + 1) for child in self._children(node)]))
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
        nodes: Dict[int, int] = {}
        self._nodes = nodes
        self._root = None
        self._root_tid = None
        pool = self._pool
        tids, clks, aclks, parents, first_child, next_sibling, prev_sibling, free = pool
        path: List[int] = []
        for tid, clk, aclk, depth in rows:
            if not 0 <= depth <= len(path) or (depth == 0) != (self._root is None):
                raise ValueError(f"malformed tree-clock snapshot row {[tid, clk, aclk, depth]!r}")
            node = free.pop() if free else pool.grow()
            tids[node] = tid
            clks[node] = clk
            aclks[node] = aclk
            nodes[tid] = node
            if depth == 0:
                self._root = node
                self._root_tid = tid
            else:
                parent = parents[node] = path[depth - 1]
                previous = path[depth] if depth < len(path) else None
                prev_sibling[node] = previous
                if previous is None:
                    first_child[parent] = node
                else:
                    next_sibling[previous] = node
                del path[depth:]
            path.append(node)

    def nodes(self) -> Iterator[TreeClockNode]:
        """Iterate views of all nodes in pre-order from the root, then any detached nodes.

        Children are visited first to last (most recently attached
        first), so the pre-order is the order :func:`render_tree_clock`
        prints.
        """
        pool = self._pool
        seen = set()
        if self._root is not None:
            stack = [self._root]
            while stack:
                node = stack.pop()
                seen.add(pool.tid[node])
                yield TreeClockNode(pool, node)
                # Pushed reversed, so they pop first to last.
                stack.extend(reversed(list(self._children(node))))
        for tid, node in self._nodes.items():
            if tid not in seen:
                yield TreeClockNode(pool, node)

    def depth(self) -> int:
        """Height of the tree (0 for an empty clock, 1 for a single root)."""
        if self._root is None:
            return 0
        best = 0
        stack: List[Tuple[int, int]] = [(self._root, 1)]
        while stack:
            node, level = stack.pop()
            best = max(best, level)
            for child in self._children(node):
                stack.append((child, level + 1))
        return best

    def validate_structure(self) -> List[str]:
        """Check internal invariants; returns a list of violation messages.

        Verified invariants: the thread map and the tree agree, parent /
        child / sibling pointers are consistent, each thread appears at
        most once, child lists are sorted by descending attachment clock,
        every non-root reachable node carries an attachment clock, and
        the cached root thread is the root's.
        """
        problems: List[str] = []
        pool = self._pool
        tids, aclks, parents, prev_sibling = pool.tid, pool.aclk, pool.parent, pool.prev_sibling
        reachable: Dict[int, int] = {}
        root = self._root
        if root is None:
            if self._root_tid is not None:
                problems.append(f"empty clock caches root thread t{self._root_tid}")
        else:
            if parents[root] is not None:
                problems.append("root has a parent")
            if aclks[root] is not None:
                problems.append("root has an attachment clock")
            if tids[root] != self._root_tid:
                problems.append(
                    f"cached root thread t{self._root_tid} is not the root's t{tids[root]}"
                )
            stack = [root]
            while stack:
                node = stack.pop()
                if tids[node] in reachable:
                    problems.append(f"thread t{tids[node]} appears twice in the tree")
                    continue
                reachable[tids[node]] = node  # type: ignore[index]
                previous_aclk: Optional[int] = None
                previous_child: Optional[int] = None
                for child in self._children(node):
                    if parents[child] != node:
                        problems.append(f"child t{tids[child]} has wrong parent pointer")
                    if prev_sibling[child] != previous_child:
                        problems.append(f"child t{tids[child]} has wrong prev_sibling pointer")
                    aclk = aclks[child]
                    if aclk is None:
                        problems.append(f"non-root node t{tids[child]} has no attachment clock")
                    elif previous_aclk is not None and aclk > previous_aclk:
                        problems.append(
                            f"children of t{tids[node]} are not in descending aclk order"
                        )
                    previous_aclk = aclk if aclk is not None else previous_aclk
                    previous_child = child
                    stack.append(child)
        for tid, node in self._nodes.items():
            if tids[node] != tid:
                problems.append(f"thread map entry {tid} points at node of t{tids[node]}")
        for tid, node in reachable.items():
            if self._nodes.get(tid) != node:
                problems.append(f"reachable node t{tid} is missing from the thread map")
        for tid in self._nodes:
            if root is not None and tid not in reachable:
                problems.append(f"thread map entry t{tid} is not reachable from the root")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeClock(root={self.root!r}, entries={len(self._nodes)})"

    # -- internal helpers -----------------------------------------------------------------

    def _children(self, node: int) -> Iterator[int]:
        """Iterate ``node``'s children, first to last (introspection only)."""
        next_sibling = self._pool.next_sibling
        child = self._pool.first_child[node]
        while child is not None:
            yield child
            child = next_sibling[child]

    def _push_child(self, child: int, parent: int) -> None:
        """The paper's ``pushChild``: attach ``child`` at the front of ``parent``'s list."""
        _, _, _, parents, first_child, next_sibling, prev_sibling, _ = self._pool
        parents[child] = parent
        prev_sibling[child] = None
        head = next_sibling[child] = first_child[parent]
        if head is not None:
            prev_sibling[head] = child
        first_child[parent] = child

    def _graft(self, other_root: int, old_root_tid: Optional[int]) -> Tuple[int, int, int]:
        """The paper's ``getUpdatedNodes`` + ``detachNodes`` + ``attachNodes`` in one walk.

        A pruned pre-order traversal of ``other``'s tree from
        ``other_root``.  Every node of ``other`` whose clock has progressed
        compared to this clock is unlinked from its local position and
        re-attached under its ``other`` parent's counterpart the moment
        the walk finds it.  When ``old_root_tid`` is given (the
        monotone-copy case) the node of that thread is repositioned even
        if it has not progressed, so that the old root lands under the
        new one.  The local counterpart of ``other_root`` itself is
        unlinked (its ``aclk`` cleared) and updated but left detached;
        the caller places it.

        Two details keep the single pass equal to the paper's three:

        * an insertion *cursor* per expanded node: its first re-attached
          child goes to the front of the child list and each later one
          right after the previous one, so ``other``'s sibling order
          (descending ``aclk``) is kept;
        * indirect monotonicity compares a child's ``aclk`` against the
          expanded node's *pre-op* clock, which the descent carries in
          its frame, since the walk has already updated the node itself.

        Both clocks' nodes live in the one pool, as disjoint index sets,
        so the walk reads ``other``'s fields and writes this clock's
        through the same lists.

        Returns ``(local counterpart of other_root, entries_processed,
        entries_updated)``: one for the root plus each child-node
        examination (the "light gray" area of Figures 4 and 5, which
        defines ``TCWork``), and the entries whose clock value actually
        changed (this operation's contribution to ``VTWork``).
        """
        tids, clks, aclks, parents, first_child, next_sibling, prev_sibling, free = self._pool
        nodes = self._nodes
        nodes_get = nodes.get
        tid = tids[other_root]
        parent = nodes_get(tid)
        if parent is None:
            parent_clk = 0
            parent = free.pop() if free else self._pool.grow()
            tids[parent] = tid
            nodes[tid] = parent
        else:
            parent_clk = clks[parent]
            old_parent = parents[parent]
            if old_parent is not None:
                previous = prev_sibling[parent]
                following = next_sibling[parent]
                if previous is None:
                    first_child[old_parent] = following
                else:
                    next_sibling[previous] = following
                if following is not None:
                    prev_sibling[following] = previous
                parents[parent] = None
                prev_sibling[parent] = None
                next_sibling[parent] = None
                aclks[parent] = None
        clk = clks[other_root]
        clks[parent] = clk
        updated = 0 if parent_clk == clk else 1
        processed = 1
        root = parent
        # Each descent into a progressed child with children pushes one
        # frame (resume sibling, parent, parent's pre-op clock, cursor).
        frames: List[Tuple[Optional[int], int, int, Optional[int]]] = []
        cursor: Optional[int] = None
        child = first_child[other_root]
        while True:
            while child is not None:
                processed += 1
                tid = tids[child]
                clk = clks[child]
                local = nodes_get(tid)
                before = 0 if local is None else clks[local]
                if before < clk or tid == old_root_tid:
                    if local is None:
                        local = free.pop() if free else self._pool.grow()
                        tids[local] = tid
                        nodes[tid] = local
                    else:
                        # Unlink from the old position (inlined sibling removal).
                        old_parent = parents[local]
                        if old_parent is not None:
                            previous = prev_sibling[local]
                            following = next_sibling[local]
                            if previous is None:
                                first_child[old_parent] = following
                            else:
                                next_sibling[previous] = following
                            if following is not None:
                                prev_sibling[following] = previous
                    if before != clk:
                        updated += 1
                        clks[local] = clk
                    # Re-attach right after the cursor (at the front first).
                    aclks[local] = aclks[child]
                    parents[local] = parent
                    prev_sibling[local] = cursor
                    if cursor is None:
                        following = first_child[parent]
                        first_child[parent] = local
                    else:
                        following = next_sibling[cursor]
                        next_sibling[cursor] = local
                    next_sibling[local] = following
                    if following is not None:
                        prev_sibling[following] = local
                    cursor = local
                    if before < clk:
                        # Progressed: descend, resume at the next sibling later.
                        grandchild = first_child[child]
                        if grandchild is None:
                            child = next_sibling[child]
                        else:
                            frames.append((next_sibling[child], parent, parent_clk, cursor))
                            parent = local
                            parent_clk = before
                            cursor = None
                            child = grandchild
                        continue
                if aclks[child] <= parent_clk:
                    # Indirect monotonicity: all remaining (older) siblings
                    # are already known to this clock.
                    break
                child = next_sibling[child]
            if not frames:
                return root, processed, updated
            child, parent, parent_clk, cursor = frames.pop()

    def _recycle(self, node: int) -> None:
        """Clear ``node``'s links and ``aclk`` and park it on the pool's free list.

        The free list is shared by every tree clock of the context —
        safe, because no clock references a parked index — so nodes
        dropped by one clock's deep copy are recycled by any clock's
        later attach.
        """
        _, _, aclks, parents, first_child, next_sibling, prev_sibling, free = self._pool
        parents[node] = None
        first_child[node] = None
        prev_sibling[node] = None
        next_sibling[node] = None
        aclks[node] = None
        free.append(node)

    def _deep_copy_from(self, other: "TreeClock") -> Tuple[int, int]:
        """Rebuild this clock as an exact structural copy of ``other``.

        Works in place: this clock's existing nodes are re-used for the
        threads that survive the copy, nodes of vanished threads are
        recycled onto the free list, and new threads draw from it —
        steady-state deep copies allocate nothing.  The traversal is
        iterative, so degenerate deep trees cannot overflow the Python
        call stack.  Both clocks must share one context.  Returns
        ``(entries_changed, entries_processed)``.
        """
        if other.context is not self.context:
            raise ValueError("cannot copy tree clocks across clock contexts")
        if other is self:
            return 0, len(self._nodes)
        old_nodes = self._nodes
        pool = self._pool
        tids, clks, aclks, parents, first_child, next_sibling, prev_sibling, free = pool
        other_root = other._root
        if other_root is None:
            # self becomes the all-zero vector time: every node is dropped.
            changed = 0
            for node in old_nodes.values():
                if clks[node]:
                    changed += 1
                self._recycle(node)
            self._nodes = {}
            self._root = None
            self._root_tid = None
            return changed, 0
        nodes: Dict[int, int] = {}
        self._nodes = nodes
        processed = 0
        changed = 0
        # Pre-order walk over `other`, pushing children in first-to-last
        # order; popping reverses them, and attaching each at the front of
        # its parent's child list restores the original order (attachment
        # happens at pop time, so interleaving with subtrees is harmless).
        originals: List[int] = [other_root]
        copies: List[Optional[int]] = [None]
        while originals:
            original = originals.pop()
            parent_copy = copies.pop()
            tid = tids[original]
            node = old_nodes.pop(tid, None)  # type: ignore[arg-type]
            if node is None:
                old_clk = 0
                node = free.pop() if free else pool.grow()
                tids[node] = tid
            else:
                old_clk = clks[node]
            processed += 1
            clk = clks[original]
            if old_clk != clk:
                changed += 1
            nodes[tid] = node  # type: ignore[index]
            clks[node] = clk
            aclks[node] = aclks[original]
            parents[node] = parent_copy
            first_child[node] = None
            prev_sibling[node] = None
            if parent_copy is None:
                next_sibling[node] = None
                self._root = node
                self._root_tid = tid
            else:
                head = first_child[parent_copy]
                next_sibling[node] = head
                if head is not None:
                    prev_sibling[head] = node
                first_child[parent_copy] = node
            child = first_child[original]
            while child is not None:
                originals.append(child)
                copies.append(node)
                child = next_sibling[child]
        # Threads of the old tree that `other` does not know: recycle.
        for node in old_nodes.values():
            if clks[node]:
                changed += 1
            self._recycle(node)
        return changed, processed
