"""Thread-safe metrics: counters, gauges and fixed-bucket ns histograms.

The online counterpart of the offline ``repro.bench`` discipline: every
long-running layer of the system (the session walk, the serve scheduler,
the worker pool) records its throughput and health into a
:class:`MetricsRegistry`, and the ``stats`` protocol op of
:mod:`repro.serve` snapshots the registry so ``repro status`` can render
a live view of a running service.

Design constraints, in priority order:

1. **Disabled mode must stay off the hot path.**  The process-global
   default registry starts *disabled*; every instrumentation site gates
   on one attribute check (``if registry.enabled:`` — or a cached
   ``None`` when disabled) before touching any instrument.  The batched
   pipeline's PR 5 numbers are the contract; the ``obs`` bench suite
   enforces disabled ≤1% and enabled ≤5% on the session scalability
   cases.
2. **Exact under concurrency.**  Counters are hammered from handler
   threads (which also run streamed analyses) and the pool monitor at
   once; every mutation takes the instrument's lock, so totals are
   exact, not "approximately eventually right".
3. **Snapshot-friendly.**  :meth:`MetricsRegistry.snapshot` returns a
   plain JSON-serializable dict — the wire payload of the ``stats`` op
   and the body of the ``repro status`` table.

Instrument identity is ``name`` plus optional labels::

    registry.counter("serve.pool.jobs_done").inc()
    registry.counter("serve.pool.jobs_done", worker=3).inc()
    registry.histogram("session.feed_ns", spec="hb+tc+detect").observe(dt)

Repeated lookups with the same (name, labels) return the same instrument,
so hot callers cache the instrument once (e.g. at ``Session.begin()``)
and pay only the mutation afterwards.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Tuple

#: Default histogram bucket upper bounds, in nanoseconds: 1µs … 10s in
#: decades.  Feed times of a 4096-event batch land mid-range; a bucket
#: overflow count catches anything slower.
DEFAULT_NS_BUCKETS: Tuple[int, ...] = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
)


def instrument_key(name: str, labels: Mapping[str, object]) -> str:
    """The registry key of one instrument: ``name{k=v,...}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events fed, jobs done, crashes)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Optional[Mapping[str, object]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); thread-safe and exact."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"type": "counter", "name": self.name, "value": self._value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class Gauge:
    """A point-in-time value (queue depth, RSS bytes, workers alive)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Optional[Mapping[str, object]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"type": "gauge", "name": self.name, "value": self._value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class Histogram:
    """Fixed-bucket distribution of nanosecond durations.

    ``buckets`` are upper bounds (inclusive); an observation beyond the
    last bound lands in the overflow slot.  Alongside the bucket counts
    the histogram keeps count/sum/min/max, so means and rates derive
    from one snapshot without retaining samples.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Tuple[int, ...] = DEFAULT_NS_BUCKETS,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(buckets) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None
        self._lock = threading.Lock()

    def observe(self, value_ns: int) -> None:
        index = bisect_left(self.buckets, value_ns)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value_ns
            if self._min is None or value_ns < self._min:
                self._min = value_ns
            if self._max is None or value_ns > self._max:
                self._max = value_ns

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> int:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                "type": "histogram",
                "name": self.name,
                "buckets_ns": list(self.buckets),
                "counts": list(self._counts),
                "count": self._count,
                "sum_ns": self._sum,
                "min_ns": self._min,
                "max_ns": self._max,
                "mean_ns": self._sum / self._count if self._count else 0.0,
            }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    ``enabled`` is a plain attribute on purpose: instrumentation sites
    read it once per batch (or cache instruments at walk start) and do
    nothing else when it is ``False`` — that single attribute check *is*
    the disabled mode.  Creating or reading instruments works regardless
    of ``enabled``; the flag only encodes the callers' contract.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop every instrument (tests and bench isolation)."""
        with self._lock:
            self._instruments.clear()

    # -- instruments -------------------------------------------------------------------

    def _get_or_create(self, cls, key: str, factory):
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory()
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {key!r} is already registered as {type(instrument).__name__}, "
                f"not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        key = instrument_key(name, labels)
        return self._get_or_create(Counter, key, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = instrument_key(name, labels)
        return self._get_or_create(Gauge, key, lambda: Gauge(name, labels))

    def histogram(
        self, name: str, buckets: Tuple[int, ...] = DEFAULT_NS_BUCKETS, **labels: object
    ) -> Histogram:
        key = instrument_key(name, labels)
        return self._get_or_create(Histogram, key, lambda: Histogram(name, buckets, labels))

    # -- introspection -----------------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str, **labels: object) -> Optional[object]:
        """The instrument registered under (name, labels), or ``None``."""
        return self._instruments.get(instrument_key(name, labels))

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serializable view of every instrument, keyed by full name."""
        with self._lock:
            items = list(self._instruments.items())
        return {key: instrument.as_dict() for key, instrument in items}  # type: ignore[attr-defined]


#: The process-global default registry.  Disabled until something opts
#: in (``repro serve`` always does; CLIs via ``--obs-metrics``).
DEFAULT_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global default registry (what instrumentation binds to)."""
    return DEFAULT_REGISTRY


def enable() -> MetricsRegistry:
    """Enable the default registry; returns it for chaining."""
    return DEFAULT_REGISTRY.enable()


def disable() -> MetricsRegistry:
    """Disable the default registry; instruments keep their values."""
    return DEFAULT_REGISTRY.disable()


def enabled() -> bool:
    """Whether the default registry is currently recording."""
    return DEFAULT_REGISTRY.enabled
