"""``repro.api`` — the unified streaming session API.

One event walk, many analyses, any source.  This package is the public
entry point tying the rest of the library together:

* :class:`EventSource` — one protocol for every way events arrive: an
  in-memory :class:`~repro.trace.trace.Trace` (:class:`TraceSource`), a
  STD/CSV[.gz] file streamed lazily (:class:`FileSource`), an mmap'd
  colf container with upfront thread tables (:class:`ColfSource`), a
  live capture recorder (:class:`CaptureSource`), or a synthetic
  generator (:class:`GeneratorSource`).
* :class:`AnalysisSpec` / :func:`parse_spec` — one evaluation-matrix
  cell (order × clock × components) as a value with a canonical string
  form, backed by open registries (:func:`register_order`,
  :func:`register_clock`).
* :class:`Session` — drives N specs through **one** pass over a source
  and returns a :class:`SessionResult` keyed by spec.

Quickstart
----------
>>> from repro.api import Session, parse_spec
>>> session = Session(["shb+tc+detect", "shb+vc+detect"])
>>> result = session.run("trace.std.gz")      # one walk, both clocks
>>> result["shb+vc+detect"].detection.race_count
0
>>> result.primary.elapsed_ns                 # per-spec attributed time
1234567

Everything that used to be wired by hand — ``repro analyze``'s flag
combinations, ``repro capture``'s online detectors, the ``paper``
bench cases behind :mod:`repro.experiments` — now goes through this one
surface.
"""

from .registry import (
    CLOCKS,
    ORDERS,
    Registry,
    clock_class,
    order_class,
    register_clock,
    register_order,
)
from .session import Session, SessionResult, run_specs
from .sources import (
    DEFAULT_BATCH_SIZE,
    CaptureSource,
    ColfSource,
    EventSource,
    FileSource,
    GeneratorSource,
    TraceSource,
    as_event_source,
    iter_event_batches,
)
from .spec import AnalysisSpec, coerce_spec, parse_spec

__all__ = [
    "AnalysisSpec",
    "CLOCKS",
    "CaptureSource",
    "ColfSource",
    "DEFAULT_BATCH_SIZE",
    "EventSource",
    "FileSource",
    "GeneratorSource",
    "ORDERS",
    "Registry",
    "Session",
    "SessionResult",
    "TraceSource",
    "as_event_source",
    "clock_class",
    "coerce_spec",
    "iter_event_batches",
    "order_class",
    "parse_spec",
    "register_clock",
    "register_order",
    "run_specs",
]
