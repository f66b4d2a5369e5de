"""``repro.obs`` — metrics, spans, logging and process introspection.

The observability substrate of the reproduction: one place where every
layer (session walk, engine, serve scheduler, worker pool, CLIs)
reports what it is doing, cheaply enough to leave on in production.
Four leaf modules:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket ns histograms with a process-global
  default registry; *disabled* by default, and disabled mode costs the
  instrumented hot paths a single attribute check.
* :mod:`repro.obs.tracing` — lightweight nested spans with monotonic-ns
  stamps and a ``repro-obs/1`` JSON-lines exporter, so a whole
  ``repro analyze`` / ``repro serve`` run reconstructs offline.
* :mod:`repro.obs.logging` — structured logging (``--log-json`` /
  ``--log-level`` on every CLI entry point) under one ``repro``
  namespace.
* :mod:`repro.obs.proc` — RSS sampling via procfs for the serve fleet's
  memory gauges.

Distributed tracing sits on top: :mod:`repro.obs.context` carries a
W3C-``traceparent``-style :class:`TraceContext` across protocol messages
and process boundaries, :mod:`repro.obs.merge` gathers the per-process
span files of one job back together, and :mod:`repro.obs.report` (via
``repro obs timeline`` / ``repro obs export``, see
:mod:`repro.obs.cli`) reconstructs the end-to-end lifecycle — phase
totals, critical path, ASCII gantt, Chrome/Perfetto export.

``repro.obs.timing`` holds :func:`~repro.obs.timing.timing_fields`,
the ``elapsed_ns`` / ``elapsed_seconds`` pair every result payload
serializes its duration as.  It is not a timer: offline timing is
:mod:`repro.bench`'s.

The cardinal rule for new instrumentation (enforced by the ``obs``
bench suite): **disabled mode must stay off the hot path** — gate every
per-event or per-batch site on one cached attribute check and do
nothing else when observability is off.
"""

from .context import (
    TraceContext,
    active_context,
    attach_context,
    context_from_message,
    current_context,
    detach_context,
    new_context,
    parse_traceparent,
    stamp_message,
    use_context,
)
from .logging import configure_logging, get_logger
from .metrics import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .proc import rss_bytes, sample_rss
from .tracing import (
    SCHEMA,
    SpanExporter,
    configure_tracing,
    current_span,
    export_span,
    read_spans,
    shutdown_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_NS_BUCKETS",
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanExporter",
    "TraceContext",
    "active_context",
    "attach_context",
    "configure_logging",
    "configure_tracing",
    "context_from_message",
    "current_context",
    "current_span",
    "detach_context",
    "export_span",
    "get_logger",
    "get_registry",
    "new_context",
    "parse_traceparent",
    "read_spans",
    "rss_bytes",
    "sample_rss",
    "shutdown_tracing",
    "span",
    "stamp_message",
    "tracing_enabled",
    "use_context",
]
