"""JSON-safe encoding helpers for engine state snapshots.

The checkpoint/restore surface (:meth:`PartialOrderAnalysis.snapshot_state`
/ :meth:`restore_state`, and :meth:`repro.api.Session.checkpoint`) needs
to round-trip engine state through JSON, which only has string object
keys — but the engine keys its auxiliary maps by *trace values*: lock and
variable names are usually strings, thread ids are ints, and hand-built
traces may use ints for variables too.  A plain ``str(key)`` round trip
would silently collide ``1`` with ``"1"`` and change detector map
identity, so every key travels as a small tagged pair instead, and every
mapping travels as an association list (JSON arrays preserve order, and
detector iteration order — hence race order and check counts — depends
on dict insertion order).

Clocks travel as their own exact snapshots (:meth:`Clock.snapshot`: a
tree clock's pre-order rows, a vector clock's length and non-zero
entries), so a restored walk has the uninterrupted walk's clocks, not
just its vector times.  Timestamps, which are plain vector times, are
``[[tid, clk], ...]`` pairs in insertion order, with only non-zero
entries (mirroring :meth:`Clock.as_dict`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..clocks.base import Clock, VectorTime
from .result import Race

#: Version stamp of the engine-state payload produced by
#: :meth:`PartialOrderAnalysis.snapshot_state`.
ENGINE_STATE_VERSION = 2


def encode_key(key: object) -> List[object]:
    """One lock/variable key as a JSON-safe tagged pair.

    Only the key types that can actually appear in a trace (``str`` from
    parsed STD/colf traces, ``int`` from hand-built ones) are supported;
    anything else is a programming error worth failing loudly on rather
    than silently stringifying.
    """
    if isinstance(key, bool) or not isinstance(key, (str, int)):
        raise TypeError(f"cannot snapshot non-trace key {key!r} ({type(key).__name__})")
    return ["s", key] if isinstance(key, str) else ["i", key]


def decode_key(encoded: Sequence[object]) -> object:
    """Inverse of :func:`encode_key`."""
    tag, value = encoded
    if tag == "s":
        return str(value)
    if tag == "i":
        return int(value)  # type: ignore[arg-type]
    raise ValueError(f"unknown snapshot key tag {tag!r}")


def encode_vt(vector_time: VectorTime) -> List[List[int]]:
    """A vector time as ``[[tid, clk], ...]`` pairs (insertion order kept)."""
    return [[tid, clk] for tid, clk in vector_time.items()]


def decode_vt(pairs: Sequence[Sequence[int]]) -> VectorTime:
    """Inverse of :func:`encode_vt` (keys normalized back to ``int``)."""
    return {int(tid): int(clk) for tid, clk in pairs}


def race_to_record(race: Race) -> Dict[str, object]:
    """A :class:`Race` as a JSON-safe record with an *exact* variable key.

    Unlike :meth:`Race.as_dict` (a reporting surface that stringifies the
    variable), this keeps the variable's type through the tagged-key
    round trip so a restored detector summary compares equal to the
    uninterrupted run's.
    """
    return {
        "variable": encode_key(race.variable),
        "prior_tid": race.prior_tid,
        "prior_local_time": race.prior_local_time,
        "event_eid": race.event_eid,
        "event_tid": race.event_tid,
        "event_kind": race.event_kind,
        "location": race.location,
    }


def race_from_record(record: Dict[str, object]) -> Race:
    """Inverse of :func:`race_to_record`."""
    return Race(
        variable=decode_key(record["variable"]),  # type: ignore[arg-type]
        prior_tid=int(record["prior_tid"]),  # type: ignore[arg-type]
        prior_local_time=int(record["prior_local_time"]),  # type: ignore[arg-type]
        event_eid=int(record["event_eid"]),  # type: ignore[arg-type]
        event_tid=int(record["event_tid"]),  # type: ignore[arg-type]
        event_kind=str(record["event_kind"]),
        location=record.get("location"),  # type: ignore[arg-type]
    )


def encode_int_map(entries: Dict[int, int]) -> List[List[int]]:
    """A ``{tid: clk}`` map as ordered pairs (detector read/access maps)."""
    return [[tid, clk] for tid, clk in entries.items()]


def decode_int_map(pairs: Sequence[Sequence[int]]) -> Dict[int, int]:
    """Inverse of :func:`encode_int_map` (insertion order preserved)."""
    return {int(tid): int(clk) for tid, clk in pairs}


def encode_clock_map(clocks: Dict[object, Clock]) -> List[List[object]]:
    """A keyed clock map as ``[key, clock.snapshot()]`` pairs, in insertion order.

    Empty clocks are kept: a vector clock's entry-array length, and the
    map's order, are part of the walk's state.
    """
    return [[encode_key(key), clock.snapshot()] for key, clock in clocks.items()]
