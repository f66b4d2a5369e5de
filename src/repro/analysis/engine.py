"""The streaming analysis engine shared by the HB, SHB and MAZ algorithms.

All three algorithms are single-pass: they walk the trace once, maintain
one clock per thread (plus auxiliary clocks for locks, last writes and
last reads), and apply a small set of join/copy rules per event kind.
The engine below factors out everything that is common — clock creation,
the implicit per-event increment, fork/join handling, timestamp capture,
work counting and timing — so that each concrete analysis only states its
per-event rules, exactly like Algorithms 1, 3, 4 and 5 in the paper.

The engine is parametric in the clock class, which is the key experiment
of the paper: running the *same* algorithm with ``VectorClock`` and with
``TreeClock`` and comparing cost.

The driver is exposed at three granularities:

* :meth:`PartialOrderAnalysis.run` — the classic whole-trace entry point;
* :meth:`begin` / :meth:`feed_batch` / :meth:`finish` — the incremental
  API, and the engine's one per-event walk: a whole batch is processed
  per call, read as parallel columns (a
  :class:`~repro.trace.event.ColumnBatch`; an :class:`Event` sequence is
  transposed into one), with the per-kind handler resolved **once** from
  a precomputed dispatch table (a dict of bound methods keyed by
  :class:`OpKind`, built at :meth:`begin` time), so the hot loop's only
  per-event branches are the two lock kinds it applies inline (below).
  Handlers keep their ``(event, clock)`` signature: the batch builds its
  :class:`Event` objects when a handler first needs one;
* :meth:`begin` / :meth:`feed` / :meth:`finish` — the one-event form,
  a singleton ``feed_batch``.  This is what
  :class:`repro.capture.OnlineDetector` drives while a live program is
  still executing: the thread universe does not need to be known upfront
  (threads register dynamically via :meth:`ClockContext.add_thread`) and
  detection results stream out through the ``on_race`` callback.

HB, SHB and MAZ order lock events alike, by the two shared rules
:func:`acquire_rule` and :func:`release_rule`, which a class binds as its
``_on_acquire`` / ``_on_release``.  Where the dispatch table holds them,
:meth:`~PartialOrderAnalysis.feed_batch` applies them inline, with one
lock-clock lookup and no handler call.  Every other handler is called
from the table in the same loop: the lock hooks of an order that
implements :meth:`~PartialOrderAnalysis._handle_event`, or of a subclass
that overrides one (the deep-copy ablation's release, for instance).

Every granularity is *batch-transparent*: feeding the same events in any
batch partition (including one at a time) produces bit-identical results
— same timestamps, same races in the same order, same work counts.  The
differential tests in ``tests/differential/test_batch_differential.py``
enforce this, and any new per-event rule must preserve it.
"""

from __future__ import annotations

import time
from itertools import count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..clocks.base import Clock, ClockContext, VectorTime, WorkCounter
from ..clocks.tree_clock import TreeClock
from ..obs import metrics as obs_metrics
from ..trace.event import ColumnBatch, Event, EventBatch, OpKind
from ..trace.io import DEFAULT_BATCH_SIZE
from ..trace.trace import Trace
from .result import AnalysisResult, DetectionSummary, Race
from .serial import (
    ENGINE_STATE_VERSION,
    decode_key,
    decode_vt,
    encode_clock_map,
    encode_vt,
)

#: A per-kind handler: ``(event, clock)`` with ``clock`` the (already
#: incremented) clock of the event's thread.  ``None`` means "no rule"
#: (begin/end markers only advance local time).
EventHandler = Optional[Callable[[Event, Clock], None]]


def acquire_rule(analysis: "PartialOrderAnalysis", event: Event, clock: Clock) -> None:
    """``acquire(t, ℓ)`` — ``C_t.Join(L_ℓ)``, the acquire rule of HB, SHB and MAZ.

    A class uses it by binding it as ``_on_acquire``;
    :meth:`PartialOrderAnalysis.feed_batch` then applies it inline
    instead of calling it.
    """
    clock.join(analysis.clock_of_lock(event.target))


def release_rule(analysis: "PartialOrderAnalysis", event: Event, clock: Clock) -> None:
    """``release(t, ℓ)`` — ``L_ℓ.MonotoneCopy(C_t)``, the release rule of HB, SHB and MAZ.

    With vector clocks the monotone copy is a plain copy; Lemma 2
    guarantees its precondition.  Bound as ``_on_release`` and applied
    inline like :func:`acquire_rule`.
    """
    analysis.clock_of_lock(event.target).monotone_copy(clock)


def _inline_kind(
    dispatch: Dict[OpKind, EventHandler], kind: OpKind, rule: Callable[..., None]
) -> Optional[OpKind]:
    """``kind`` if its ``dispatch`` entry is ``rule`` bound to the analysis, else ``None``."""
    return kind if getattr(dispatch.get(kind), "__func__", None) is rule else None


class PartialOrderAnalysis:
    """Base class of the streaming partial-order analyses.

    Parameters
    ----------
    clock_class:
        The clock data structure to use (:class:`~repro.clocks.TreeClock`
        by default, :class:`~repro.clocks.VectorClock` for the baseline).
    capture_timestamps:
        When true, the vector timestamp of every event (the paper's
        ``C_e``) is recorded in the result.  This costs O(n·k) memory and
        time and is intended for tests and small demonstrations.
    count_work:
        When true, a :class:`~repro.clocks.WorkCounter` is attached to all
        clocks and reported in the result (used for Figures 8 and 9).
    detect:
        When true, the analysis also runs its detection component (race
        detection for HB/SHB, reversible pairs for MAZ) — the
        "+Analysis" configuration of the evaluation.
    keep_races:
        Whether the detector should keep full race records or only count.
    on_race:
        Optional callback invoked with each :class:`Race` the moment the
        detector reports it.  This is how the online (live-capture) mode
        surfaces races while the traced program is still running.
    locate:
        Optional callable mapping an :class:`Event` to a source-location
        string (or ``None``).  When given, reported races carry the
        location of the racy access — populated by the capture subsystem,
        which knows where in the traced program each event originated.
    """

    #: Name of the partial order; overridden by subclasses.
    PARTIAL_ORDER = "?"

    def __init__(
        self,
        clock_class: Type[Clock] = TreeClock,
        *,
        capture_timestamps: bool = False,
        count_work: bool = False,
        detect: bool = False,
        keep_races: bool = True,
        on_race: Optional[Callable[[Race], None]] = None,
        locate: Optional[Callable[[Event], Optional[str]]] = None,
    ) -> None:
        self.clock_class = clock_class
        self.capture_timestamps = capture_timestamps
        self.count_work = count_work
        self.detect = detect
        self.keep_races = keep_races
        self.on_race = on_race
        self.locate = locate
        # Per-run state (populated by begin()).
        self.context: Optional[ClockContext] = None
        self.thread_clocks: Dict[int, Clock] = {}
        self.lock_clocks: Dict[object, Clock] = {}
        self._trace_name = ""
        self._events_fed = 0
        self._timestamps: Optional[List[VectorTime]] = None
        self._started_ns = 0
        # Holds bound methods of this analysis, i.e. a reference cycle:
        # built by begin() and dropped by finish(), so a finished run is
        # freed by reference counting, clocks and detector maps included.
        self._dispatch: Optional[Dict[OpKind, EventHandler]] = None
        # The lock kinds whose table entry is a shared lock rule, which
        # feed_batch applies inline (``None`` where it calls the handler).
        self._inline_acquire: Optional[OpKind] = None
        self._inline_release: Optional[OpKind] = None

    # -- clock management ----------------------------------------------------------

    def _new_clock(self, owner: Optional[int] = None) -> Clock:
        assert self.context is not None
        return self.clock_class(self.context, owner=owner)

    def clock_of_thread(self, tid: int) -> Clock:
        """The clock ``C_t`` of thread ``tid`` (created on first use)."""
        clock = self.thread_clocks.get(tid)
        if clock is None:
            clock = self._new_clock(owner=tid)
            self.thread_clocks[tid] = clock
        return clock

    def clock_of_lock(self, lock: object) -> Clock:
        """The clock ``L_ℓ`` of lock ``lock`` (created empty on first use)."""
        clock = self.lock_clocks.get(lock)
        if clock is None:
            clock = self._new_clock(owner=None)
            self.lock_clocks[lock] = clock
        return clock

    # -- hooks implemented by subclasses ---------------------------------------------

    def _reset_state(self) -> None:
        """Reset per-run state; subclasses extend this for their own maps."""

    def _handle_event(self, event: Event, clock: Clock) -> None:
        """Apply the per-event rules of the concrete analysis.

        ``clock`` is the (already incremented) clock of the event's
        thread.  The base per-kind handlers delegate here, so a subclass
        may either implement this single method with an ``if``/``elif``
        chain, or (faster) override the per-kind hooks ``_on_acquire`` /
        ``_on_release`` / ``_on_read`` / ``_on_write`` directly — the
        built-in analyses do the latter so the dispatch table resolves
        each kind to its rule without re-branching per event, and bind
        :func:`acquire_rule` / :func:`release_rule` as their lock hooks.
        Fork/join are handled uniformly by the engine.
        """
        raise NotImplementedError

    def _on_acquire(self, event: Event, clock: Clock) -> None:
        self._handle_event(event, clock)

    def _on_release(self, event: Event, clock: Clock) -> None:
        self._handle_event(event, clock)

    def _on_read(self, event: Event, clock: Clock) -> None:
        self._handle_event(event, clock)

    def _on_write(self, event: Event, clock: Clock) -> None:
        self._handle_event(event, clock)

    def _on_fork(self, event: Event, clock: Clock) -> None:
        """Engine-uniform fork rule: the child's clock joins the parent's."""
        context = self.context
        assert context is not None
        child = int(event.target)  # type: ignore[arg-type]
        if child not in context.index_of:
            context.add_thread(child)
        self.clock_of_thread(child).join(clock)

    def _on_join(self, event: Event, clock: Clock) -> None:
        """Engine-uniform join rule: the parent's clock joins the child's."""
        context = self.context
        assert context is not None
        child = int(event.target)  # type: ignore[arg-type]
        if child not in context.index_of:
            context.add_thread(child)
        clock.join(self.clock_of_thread(child))

    def _dispatch_table(self) -> Dict[OpKind, EventHandler]:
        """The per-kind handlers of this run, resolved once at :meth:`begin`.

        Called after :meth:`_reset_state`, so per-run components (e.g.
        the detector) exist and a subclass can bind their bound methods
        directly into the table — the hot loop then jumps straight to
        the rule with one dict lookup and zero re-branching.  Begin/end
        markers map to ``None`` (they only advance local time).  An
        acquire or release entry that is :func:`acquire_rule` or
        :func:`release_rule`, bound, is not called: :meth:`feed_batch`
        applies that rule inline.  Any other entry, such as a subclass's
        own lock hook, is called like the access handlers.
        """
        return {
            OpKind.ACQUIRE: self._on_acquire,
            OpKind.RELEASE: self._on_release,
            OpKind.READ: self._on_read,
            OpKind.WRITE: self._on_write,
            OpKind.FORK: self._on_fork,
            OpKind.JOIN: self._on_join,
            OpKind.BEGIN: None,
            OpKind.END: None,
        }

    def _detection_summary(self) -> Optional[DetectionSummary]:
        """The detector's summary, if a detector is attached."""
        return None

    # -- checkpoint/restore ------------------------------------------------------------

    def _snapshot_extra(self) -> Dict[str, object]:
        """Subclass hook: the analysis-specific state of the snapshot.

        Extended by SHB/MAZ for their last-write/last-read maps and by
        every detecting analysis for its detector state.
        """
        return {}

    def _restore_extra(self, extra: Dict[str, object]) -> None:
        """Subclass hook: rebuild the analysis-specific snapshot state."""

    def snapshot_state(self) -> Dict[str, object]:
        """Serialize the full mid-run engine state to a JSON-safe dict.

        Together with :meth:`restore_state` this is the explicit
        serialization surface of the engine: everything a run holds in
        live objects — the clock context's thread universe, every
        thread/lock clock as its exact :meth:`Clock.snapshot` (in
        creation order, empty ones included), subclass maps, detector
        state, timestamps and work counts — captured between two
        ``feed_batch`` calls.  Feeding the remaining events into a
        restored analysis yields the same timestamps, the same races in
        the same order, the same check counts and the same work counters
        as the uninterrupted run.
        """
        context = self.context
        if context is None:
            raise RuntimeError("snapshot_state() called before begin()")
        counter = context.counter
        return {
            "version": ENGINE_STATE_VERSION,
            "order": self.PARTIAL_ORDER,
            "trace_name": self._trace_name,
            "events_fed": self._events_fed,
            "elapsed_ns": time.perf_counter_ns() - self._started_ns,
            "threads": list(context.threads),
            "thread_clocks": [[tid, clock.snapshot()] for tid, clock in self.thread_clocks.items()],
            "lock_clocks": encode_clock_map(self.lock_clocks),
            "timestamps": (
                None
                if self._timestamps is None
                else [encode_vt(timestamp) for timestamp in self._timestamps]
            ),
            "work": (
                None
                if counter is None
                else {
                    "entries_processed": counter.entries_processed,
                    "entries_updated": counter.entries_updated,
                    "joins": counter.joins,
                    "copies": counter.copies,
                    "increments": counter.increments,
                }
            ),
            "extra": self._snapshot_extra(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume a run from a :meth:`snapshot_state` payload.

        Starts a fresh run (:meth:`begin`) with the snapshot's thread
        universe, then rebuilds every clock with :meth:`Clock.restore`.
        The analysis must be configured identically (same order, same
        clock, same ``detect`` / ``capture_timestamps`` / ``count_work``
        switches) to the one that took the snapshot.
        """
        if state.get("version") != ENGINE_STATE_VERSION:
            raise ValueError(
                f"unsupported engine snapshot version {state.get('version')!r}"
            )
        if state.get("order") != self.PARTIAL_ORDER:
            raise ValueError(
                f"snapshot is for order {state.get('order')!r}, "
                f"not {self.PARTIAL_ORDER!r}"
            )
        self.begin(threads=state["threads"], trace_name=str(state["trace_name"]))
        for tid, snapshot in state["thread_clocks"]:  # type: ignore[union-attr]
            self.clock_of_thread(tid).restore(snapshot)
        for encoded, snapshot in state["lock_clocks"]:  # type: ignore[union-attr]
            self.clock_of_lock(decode_key(encoded)).restore(snapshot)
        self._restore_extra(state["extra"])  # type: ignore[arg-type]
        timestamps = state.get("timestamps")
        if self.capture_timestamps:
            if timestamps is None:
                raise ValueError("snapshot was taken without capture_timestamps")
            self._timestamps = [decode_vt(pairs) for pairs in timestamps]  # type: ignore[union-attr]
        counter = self.context.counter if self.context is not None else None
        if counter is not None:
            work = state.get("work")
            if work is None:
                raise ValueError("snapshot was taken without count_work")
            counter.entries_processed = int(work["entries_processed"])  # type: ignore[index]
            counter.entries_updated = int(work["entries_updated"])  # type: ignore[index]
            counter.joins = int(work["joins"])  # type: ignore[index]
            counter.copies = int(work["copies"])  # type: ignore[index]
            counter.increments = int(work["increments"])  # type: ignore[index]
        self._events_fed = int(state["events_fed"])  # type: ignore[arg-type]
        # Resume the wall clock where the snapshot left off, so the final
        # result's elapsed_ns spans the analysis time, not the downtime.
        self._started_ns = time.perf_counter_ns() - int(state["elapsed_ns"])  # type: ignore[arg-type]

    # -- the incremental driver --------------------------------------------------------

    def begin(self, threads: Optional[object] = None, trace_name: str = "") -> None:
        """Start an incremental run.

        Parameters
        ----------
        threads:
            Optional iterable of thread identifiers known upfront.  May be
            empty (the default): the thread universe then grows as events
            carrying new thread ids are fed.
        trace_name:
            Name reported in the final :class:`AnalysisResult`.
        """
        counter = WorkCounter() if self.count_work else None
        self.context = ClockContext(
            threads=list(threads) if threads is not None else [], counter=counter
        )
        self.thread_clocks = {}
        self.lock_clocks = {}
        self._trace_name = trace_name
        self._events_fed = 0
        self._timestamps = [] if self.capture_timestamps else None
        self._reset_state()
        dispatch = self._dispatch = self._dispatch_table()
        self._inline_acquire = _inline_kind(dispatch, OpKind.ACQUIRE, acquire_rule)
        self._inline_release = _inline_kind(dispatch, OpKind.RELEASE, release_rule)
        self._started_ns = time.perf_counter_ns()

    def feed(self, event: Event) -> None:
        """Process one event of the (possibly still growing) trace.

        A singleton :meth:`feed_batch`: events must be fed in trace
        order, and thread ids not seen before are registered on the fly.
        """
        self.feed_batch((event,))

    def feed_batch(self, events: EventBatch) -> None:
        """Process a whole batch of events in trace order.

        The engine's one per-event walk.  ``events`` is a
        :class:`~repro.trace.event.ColumnBatch` (what the colf reader
        and :meth:`Session.feed_batch <repro.api.session.Session.feed_batch>`
        hand over) or an :class:`Event` sequence, which is transposed
        into one first (a single event's row is taken as is); the loop
        reads each event's thread, kind and target from the columns.  A
        handler that is called gets the :class:`Event` from the batch's
        :meth:`~repro.trace.event.ColumnBatch.events`, built on the first
        such call and shared by every spec fed the same batch; the
        inline lock rules need none.

        Everything loop-invariant — the dispatch table, the thread- and
        lock-clock maps, the inline lock kinds, the timestamp switch — is
        hoisted out of the per-event iteration, and bookkeeping (event
        counts) is amortized to batch granularity.  The shared lock rules
        run inline (see :meth:`_dispatch_table`); every other kind calls
        its handler.  Thread ids not seen before — including the child of
        a fork — are registered with the clock context on the fly.
        Results do not depend on how a trace is partitioned into batches,
        nor on whether a batch arrives as columns or as events (the
        batch-transparency invariant the differential tests pin down).
        """
        context = self.context
        if context is None:
            raise RuntimeError("feed_batch() called before begin()")
        dispatch = self._dispatch
        if dispatch is None:
            raise RuntimeError("feed_batch() called after finish(); begin() a new run first")
        batch: Optional[ColumnBatch] = None
        built: Optional[Sequence[Event]] = None
        if isinstance(events, ColumnBatch) or len(events) > 1:
            batch = ColumnBatch.of(events)
            rows: Iterable[Tuple[int, int, OpKind, object]] = zip(
                count(), batch.tids, batch.kinds, batch.targets
            )
        elif events:
            # One event (``feed``, a live capture): its row is built
            # directly, without the set-up a whole batch amortizes.
            built = events
            event = events[0]
            rows = ((0, event[1], event[2], event[3]),)
        else:
            rows = ()
        thread_clocks = self.thread_clocks
        lock_clocks_get = self.lock_clocks.get
        acquire = self._inline_acquire
        release = self._inline_release
        timestamps = self._timestamps
        for index, tid, kind, target in rows:
            clock = thread_clocks.get(tid)
            if clock is None:
                if tid not in context.index_of:
                    context.add_thread(tid)
                clock = self.clock_of_thread(tid)
            # The implicit per-event increment: after processing its i-th
            # event, a thread's own entry equals i (footnote 1 of the paper).
            clock.increment(tid, 1)
            if kind is acquire:
                lock = lock_clocks_get(target)
                if lock is None:
                    lock = self.clock_of_lock(target)
                clock.join(lock)
            elif kind is release:
                lock = lock_clocks_get(target)
                if lock is None:
                    lock = self.clock_of_lock(target)
                lock.monotone_copy(clock)
            else:
                handler = dispatch[kind]
                if handler is not None:
                    if built is None:
                        built = batch.events()  # type: ignore[union-attr]
                    handler(built[index], clock)
            if timestamps is not None:
                timestamps.append(clock.as_dict())
        self._events_fed += len(events)

    def finish(self) -> AnalysisResult:
        """Close the incremental run and assemble the result."""
        context = self.context
        if context is None:
            raise RuntimeError("finish() called before begin()")
        elapsed_ns = time.perf_counter_ns() - self._started_ns
        self._dispatch = None
        clock_name = getattr(self.clock_class, "SHORT_NAME", self.clock_class.__name__)
        detection = self._detection_summary()
        registry = obs_metrics.get_registry()
        if registry.enabled:
            # All engine metrics are emitted here, once per run — the
            # per-event/per-batch hot loops above carry no obs code at
            # all, keeping disabled mode free and enabled mode O(1)/run.
            labels = {"order": self.PARTIAL_ORDER, "clock": clock_name}
            registry.counter("engine.runs", **labels).inc()
            registry.counter("engine.events_fed", **labels).inc(self._events_fed)
            registry.histogram("engine.run_ns", **labels).observe(elapsed_ns)
            if detection is not None:
                registry.counter("engine.races_found", **labels).inc(detection.race_count)
        return AnalysisResult(
            partial_order=self.PARTIAL_ORDER,
            clock_name=clock_name,
            trace_name=self._trace_name,
            num_events=self._events_fed,
            num_threads=context.num_threads,
            timestamps=self._timestamps,
            work=context.counter,
            detection=detection,
            elapsed_ns=elapsed_ns,
        )

    # -- the single-pass whole-trace driver ---------------------------------------------

    def run(self, trace: Trace, batch_size: int = DEFAULT_BATCH_SIZE) -> AnalysisResult:
        """Process ``trace`` and return the analysis result.

        A thin wrapper over :meth:`begin` / :meth:`feed_batch` /
        :meth:`finish` that pre-registers the trace's thread universe (so
        vector clocks are allocated at full size immediately) and times
        only the event loop, exactly like the paper's measurements.  The
        in-memory event tuple is walked in ``batch_size`` slices through
        the batched hot path.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.begin(threads=trace.threads, trace_name=trace.name)
        feed_batch = self.feed_batch
        events = trace.events
        total = len(events)
        self._started_ns = time.perf_counter_ns()
        for start in range(0, total, batch_size):
            feed_batch(events[start : start + batch_size])
        return self.finish()
