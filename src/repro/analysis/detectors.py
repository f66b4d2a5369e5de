"""Detectors implementing the "+Analysis" component of the evaluation.

The paper's evaluation (Section 6, "Setup") measures, besides the time to
compute each partial order, the time of an *analysis* that checks, for
conflicting events, whether they are concurrent with respect to the
partial order.  For HB and SHB this is data-race detection; for MAZ it
identifies conflicting pairs whose order a stateless model checker would
try to reverse.

All detectors work on top of the streaming clocks maintained by the
analyses and only use O(1) ``Get`` accesses and epoch comparisons, so the
detection cost is identical for vector clocks and tree clocks — exactly
the property that makes the "+Analysis" speedups in Table 2 smaller than
the partial-order-only speedups.

For HB the detector applies the FastTrack-style epoch optimization
(Remark 1): the last write is summarized by a single epoch and the reads
since the last write by a per-thread epoch map.  Both epochs are stored
*flat* — a ``(tid, clk)`` pair of plain ints on the per-variable state —
so the hot path allocates nothing, and the read side adds an epoch fast
path: as long as only one thread has read since the last write (the
overwhelmingly common case), the reads are a single epoch compared in
O(1); the full per-thread read map is materialized only when a second
reading thread shows up.  The epoch check runs *before* any full
clock-entry scan, and the fast path is exact: it reports the same races,
in the same order, with the same check counts as the plain map — the
differential tests pin this equivalence down.

The hooks (:meth:`RaceDetector.on_read` / :meth:`~RaceDetector.on_write`,
:meth:`ReversiblePairDetector.on_access` /
:meth:`~ReversiblePairDetector.after_access`) take access events only:
they read the variable straight from ``event.target`` and the kind from
``event.kind``, and look the variable's state up once per call, in a
map that creates it on first use.  The analyses call them for reads and
writes alone.  The hooks do not check the kind: given any other event,
they would take its target for a variable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, DefaultDict, Dict, Optional

from ..clocks.base import Clock
from ..trace.event import Event, OpKind
from .result import DetectionSummary, Race
from .serial import (
    decode_int_map,
    decode_key,
    encode_int_map,
    encode_key,
    race_from_record,
    race_to_record,
)


@dataclass
class _VariableAccessState:
    """Per-variable access summary used by the detectors.

    The last write and the single-reader fast path are flat epochs; an
    epoch is *absent* while its ``*_clk`` is 0 (a recorded access always
    carries a positive local time, because the engine increments a
    thread's clock before handling its event — and a zero-time epoch
    could never win a ``clk > Get(tid)`` race check anyway, so treating
    it as absent is exact).  Keying absence on the clock rather than a
    sentinel thread id keeps the detectors correct even for exotic
    negative thread ids that hand-written trace files can contain.
    ``reads`` is inflated from the read epoch only once a second
    concurrent reading thread appears, and dropped at the next write.
    """

    #: Epoch of the last write (``clk @ tid``), flattened to two ints.
    write_tid: int = 0
    write_clk: int = 0
    #: Epoch of the single reading thread since the last write; unused
    #: (and reset) while ``reads`` is inflated.
    read_tid: int = 0
    read_clk: int = 0
    #: Local time of the last read of each thread since the last write;
    #: ``None`` while the single-reader epoch suffices.
    reads: Optional[Dict[int, int]] = None
    #: Local time of the last access (read or write) of each thread; used
    #: by the MAZ reversible-pair detector.
    last_access: Dict[int, int] = field(default_factory=dict)


class _BaseDetector:
    """Shared bookkeeping of the race / reversible-pair detectors.

    Parameters
    ----------
    keep_races:
        When true (default) every race is recorded in the summary; when
        false only the count is maintained.
    on_race:
        Optional callback invoked with each :class:`Race` as it is found.
        Used by the online (live-capture) detection mode to surface races
        while the traced program is still running.
    locate:
        Optional callable mapping the racy (later) event to a source
        location string; populated by the capture subsystem.
    """

    def __init__(
        self,
        keep_races: bool = True,
        on_race: Optional[Callable[[Race], None]] = None,
        locate: Optional[Callable[[Event], Optional[str]]] = None,
    ) -> None:
        self.summary = DetectionSummary()
        # Subscripting a variable not seen before creates its state.
        self._states: DefaultDict[object, _VariableAccessState] = defaultdict(
            _VariableAccessState
        )
        self._keep_races = keep_races
        self._on_race = on_race
        self._locate = locate

    def _record(self, variable: object, prior_tid: int, prior_clk: int, event: Event) -> None:
        self.summary.total_reported += 1
        if not self._keep_races and self._on_race is None:
            return
        location = self._locate(event) if self._locate is not None else None
        race = Race(
            variable=variable,
            prior_tid=prior_tid,
            prior_local_time=prior_clk,
            event_eid=event.eid,
            event_tid=event.tid,
            event_kind=event.kind.value,
            location=location,
        )
        if self._keep_races:
            self.summary.races.append(race)
        if self._on_race is not None:
            self._on_race(race)

    # -- checkpoint/restore ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe snapshot of the detector's per-variable state + summary.

        Everything order-sensitive (the per-variable map, the inflated
        ``reads`` map, MAZ's ``last_access`` map) travels as association
        lists so dict insertion order — which race order and check
        counts depend on — survives the round trip exactly.
        """
        states = []
        for variable, state in self._states.items():
            states.append(
                [
                    encode_key(variable),
                    state.write_tid,
                    state.write_clk,
                    state.read_tid,
                    state.read_clk,
                    None if state.reads is None else encode_int_map(state.reads),
                    encode_int_map(state.last_access),
                ]
            )
        return {
            "states": states,
            "checks": self.summary.checks,
            "total_reported": self.summary.total_reported,
            "races": [race_to_record(race) for race in self.summary.races],
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Rebuild detector state from a :meth:`snapshot` payload.

        Already-reported races are restored into the summary without
        re-firing the ``on_race`` callback — they were narrated when
        first found; only post-restore races stream out.
        """
        self.summary = DetectionSummary(
            races=[race_from_record(record) for record in snapshot["races"]],  # type: ignore[union-attr]
            checks=int(snapshot["checks"]),  # type: ignore[arg-type]
            total_reported=int(snapshot["total_reported"]),  # type: ignore[arg-type]
        )
        self._states = defaultdict(_VariableAccessState)
        for encoded, wtid, wclk, rtid, rclk, reads, last_access in snapshot["states"]:  # type: ignore[union-attr]
            self._states[decode_key(encoded)] = _VariableAccessState(
                write_tid=int(wtid),
                write_clk=int(wclk),
                read_tid=int(rtid),
                read_clk=int(rclk),
                reads=None if reads is None else decode_int_map(reads),
                last_access=decode_int_map(last_access),
            )


class RaceDetector(_BaseDetector):
    """Epoch-based detector of conflicting concurrent accesses (HB / SHB races).

    Parameters
    ----------
    keep_races:
        When true (default) every race is recorded in the summary; when
        false only the count is maintained (useful when benchmarking
        large traces without accumulating memory).
    """

    def on_read(self, event: Event, clock: Clock) -> None:
        """Check a read event against the last write, then record the read.

        ``event`` must be a read: its target is taken as the variable.
        """
        state = self._states[event.target]
        tid = event.tid
        self.summary.checks += 1
        write_clk = state.write_clk
        if write_clk > 0:
            write_tid = state.write_tid
            if write_tid != tid and write_clk > clock.get(write_tid):
                self._record(event.target, write_tid, write_clk, event)
        reads = state.reads
        if reads is not None:
            reads[tid] = clock.get(tid)
        elif state.read_clk == 0 or state.read_tid == tid:
            # Epoch fast path: still a single reading thread since the
            # last write — no map, no iteration, O(1) state.
            state.read_tid = tid
            state.read_clk = clock.get(tid)
        else:
            # Second concurrent reader: inflate the epoch into the map.
            state.reads = {state.read_tid: state.read_clk, tid: clock.get(tid)}
            state.read_clk = 0

    def on_write(self, event: Event, clock: Clock) -> None:
        """Check a write event against the last write and all unordered reads.

        ``event`` must be a write: its target is taken as the variable.
        """
        state = self._states[event.target]
        tid = event.tid
        summary = self.summary
        summary.checks += 1
        write_clk = state.write_clk
        if write_clk > 0:
            write_tid = state.write_tid
            if write_tid != tid and write_clk > clock.get(write_tid):
                self._record(event.target, write_tid, write_clk, event)
        reads = state.reads
        if reads is not None:
            for reader_tid, reader_clk in reads.items():
                if reader_tid == tid:
                    continue
                summary.checks += 1
                if reader_clk > clock.get(reader_tid):
                    self._record(event.target, reader_tid, reader_clk, event)
            state.reads = None
        else:
            read_clk = state.read_clk
            if read_clk > 0 and state.read_tid != tid:
                # Epoch fast path: one O(1) comparison instead of a map scan.
                summary.checks += 1
                if read_clk > clock.get(state.read_tid):
                    self._record(event.target, state.read_tid, read_clk, event)
        state.read_clk = 0
        state.write_tid = tid
        state.write_clk = clock.get(tid)


class ReversiblePairDetector(_BaseDetector):
    """Detector of MAZ-reversible conflicting pairs.

    Under MAZ all conflicting events are ordered by construction, so a
    "race" in the HB sense cannot exist.  What a stateless model checker
    cares about instead is whether the direct trace-order edge between two
    conflicting accesses is the *only* thing ordering them — such a pair
    can be reversed to obtain a different Mazurkiewicz trace.  The
    detector therefore checks, right before the MAZ algorithm adds the
    conflicting-access orderings for the current event, whether the
    previous conflicting accesses are already ordered before it.
    """

    def on_access(self, event: Event, clock: Clock) -> None:
        """Check an access event against prior conflicting accesses.

        ``event`` must be a read or a write: its target is taken as the
        variable, and any kind but a write is checked as a read.  Must be
        invoked *before* the analysis performs the read/write joins for
        ``event`` (otherwise the direct ordering added for the pair
        itself would mask reversibility).
        """
        state = self._states[event.target]
        tid = event.tid
        summary = self.summary
        if event.kind is OpKind.WRITE:
            # A write conflicts with every prior access of other threads.
            for other_tid, other_clk in state.last_access.items():
                if other_tid == tid:
                    continue
                summary.checks += 1
                if other_clk > clock.get(other_tid):
                    self._record(event.target, other_tid, other_clk, event)
        else:
            summary.checks += 1
            write_clk = state.write_clk
            if write_clk > 0:
                write_tid = state.write_tid
                if write_tid != tid and write_clk > clock.get(write_tid):
                    self._record(event.target, write_tid, write_clk, event)

    def after_access(self, event: Event, clock: Clock) -> None:
        """Record an access event once the analysis has processed it.

        ``event`` must be a read or a write, as for :meth:`on_access`.
        """
        state = self._states[event.target]
        tid = event.tid
        local_time = clock.get(tid)
        state.last_access[tid] = local_time
        if event.kind is OpKind.WRITE:
            state.write_tid = tid
            state.write_clk = local_time
