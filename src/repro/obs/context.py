"""Distributed trace context: W3C-``traceparent``-style propagation.

A :class:`TraceContext` names one position inside one distributed trace:
a 128-bit ``trace_id`` shared by every span of the job, the 64-bit
``span_id`` of the *current* span (the parent of whatever work happens
next), and a ``flags`` byte whose low bit is the W3C *sampled* flag —
"record spans for this trace".  It travels between processes as the
``traceparent`` string form::

    00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
    ^^ ^^^^^^^^^^^^^^^^^^^^ trace_id ^^ ^^^ span_id ^^^^ ^^ flags

Inside a process the context rides a :mod:`contextvars` variable
(:func:`attach_context` / :func:`use_context`), which is how it crosses
the thread boundaries of the serve stack without explicit plumbing; on
the wire it rides the ``trace`` field of every ``repro-serve/2``
protocol message (:func:`stamp_message` / :func:`context_from_message`).
:mod:`repro.obs.tracing` consults the ambient context when a *root* span
opens, so a span tree started on a worker process parents under the
client's submit span instead of floating free — the invariant the
``repro obs timeline`` reconstruction relies on: **spans are parented,
never orphaned**.

Id generation is fork-safe: span ids combine a per-process random
prefix with a counter, and the prefix is regenerated whenever the pid
changes, so workers forked from a warm forkserver never collide.
"""

from __future__ import annotations

import os
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

#: The ``traceparent`` version prefix this module emits.
TRACEPARENT_VERSION = "00"

#: ``flags`` bit 0: spans of this trace should be recorded.
FLAG_SAMPLED = 0x01

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """One position in one distributed trace (immutable, hashable)."""

    trace_id: str
    span_id: str
    flags: int = FLAG_SAMPLED

    @property
    def sampled(self) -> bool:
        """Whether spans of this trace should be recorded downstream."""
        return bool(self.flags & FLAG_SAMPLED)

    def to_traceparent(self) -> str:
        """The wire form: ``00-<trace_id>-<span_id>-<flags>``."""
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{self.flags:02x}"

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        """The same trace, re-anchored at a new (or given) span id."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            flags=self.flags,
        )


def parse_traceparent(text: str) -> TraceContext:
    """Parse a ``traceparent`` string; raises :class:`ValueError` when malformed.

    Follows the W3C shape rules: lowercase hex, fixed field widths, and
    all-zero trace or span ids are invalid.  Unknown versions are
    accepted as long as the rest of the fields parse (forward compat).
    """
    if not isinstance(text, str):
        raise ValueError(f"traceparent must be a string, got {type(text).__name__}")
    match = _TRACEPARENT_RE.match(text.strip())
    if match is None:
        raise ValueError(f"malformed traceparent {text!r}")
    _version, trace_id, span_id, flags = match.groups()
    if trace_id == "0" * 32:
        raise ValueError("traceparent trace_id must not be all zeroes")
    if span_id == "0" * 16:
        raise ValueError("traceparent span_id must not be all zeroes")
    return TraceContext(trace_id=trace_id, span_id=span_id, flags=int(flags, 16))


# -- id generation -----------------------------------------------------------------------

_ids_lock = threading.Lock()
_ids_pid: Optional[int] = None
_ids_prefix = ""
_ids_counter = 0


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex characters)."""
    trace_id = os.urandom(16).hex()
    # All-zeroes is the W3C "invalid" sentinel; practically unreachable,
    # but the contract is cheap to keep.
    return trace_id if trace_id != "0" * 32 else new_trace_id()


def new_span_id() -> str:
    """A fresh 64-bit span id: per-process random prefix + counter.

    The prefix is re-drawn whenever :func:`os.getpid` changes, so ids
    stay unique across forked workers (including forkserver children
    that inherited this module already imported).
    """
    global _ids_pid, _ids_prefix, _ids_counter
    with _ids_lock:
        pid = os.getpid()
        if pid != _ids_pid:
            _ids_pid = pid
            _ids_prefix = os.urandom(4).hex()
            _ids_counter = 0
        _ids_counter += 1
        counter = _ids_counter
    return f"{_ids_prefix}{counter & 0xFFFFFFFF:08x}"


def new_context(flags: int = FLAG_SAMPLED) -> TraceContext:
    """A brand-new trace rooted at a fresh span id."""
    return TraceContext(trace_id=new_trace_id(), span_id=new_span_id(), flags=flags)


# -- the ambient context -----------------------------------------------------------------

_CONTEXT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_obs_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The context attached to this thread/task, if any (spans not consulted)."""
    return _CONTEXT.get()


def attach_context(context: Optional[TraceContext]):
    """Attach ``context`` to the current thread/task; returns the reset token."""
    return _CONTEXT.set(context)


def detach_context(token) -> None:
    """Undo a previous :func:`attach_context`."""
    _CONTEXT.reset(token)


@contextmanager
def use_context(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Scope ``context`` over a block; ``None`` is an explicit no-op.

    The ``None`` tolerance keeps call sites unconditional — the
    scheduler wraps a job's persist in ``use_context(ctx)`` whether or
    not the job arrived with a traceparent.
    """
    if context is None:
        yield None
        return
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


def active_context() -> Optional[TraceContext]:
    """The effective outgoing context: the live span, else the attached one.

    This is what protocol stamping uses — work done *inside* a span
    propagates that span as the remote parent, so a server op handled
    under ``serve.op.submit`` hands the worker a context whose parent is
    the op span, not the client's original submit.
    """
    from . import tracing  # local: tracing imports this module at load

    span = tracing.current_span()
    if span is not None and getattr(span, "trace_id", None):
        return TraceContext(trace_id=span.trace_id, span_id=span.sid)
    return _CONTEXT.get()


# -- protocol-message plumbing -----------------------------------------------------------

#: The ``repro-serve/2`` message field the context travels in.
MESSAGE_FIELD = "trace"


def stamp_message(
    payload: Dict[str, object], context: Optional[TraceContext] = None
) -> Dict[str, object]:
    """Attach the (given or active) context to a protocol message in place.

    A payload that already carries a ``trace`` field is left untouched,
    so explicit stamping (the streaming client pins one context for the
    stream's whole lifetime) wins over the ambient one.
    """
    if MESSAGE_FIELD in payload:
        return payload
    resolved = context if context is not None else active_context()
    if resolved is not None:
        payload[MESSAGE_FIELD] = resolved.to_traceparent()
    return payload


def context_from_message(payload: Dict[str, object]) -> Optional[TraceContext]:
    """The context carried by a protocol message, or ``None``.

    Malformed ``trace`` fields are ignored (W3C behavior: a broken
    traceparent must not break the request it rode in on).
    """
    text = payload.get(MESSAGE_FIELD)
    if not isinstance(text, str):
        return None
    try:
        return parse_traceparent(text)
    except ValueError:
        return None
