"""The streaming :class:`Session`: one event walk, fanned out to many analyses.

The paper's evaluation is a matrix sweep — every trace × {MAZ, SHB, HB}
× {TreeClock, VectorClock} × {±analysis}.  Running each cell as its own
whole-trace pass repeats the event decoding, iteration and dispatch cost
once per cell; a :class:`Session` instead drives *k* specs through a
single pass over one :class:`~repro.api.sources.EventSource`, using the
batched ``begin()/feed_batch()/finish()`` engine API underneath:
:meth:`Session.run` pulls the source as event batches
(:func:`~repro.api.sources.iter_event_batches`) and fans each batch out
whole, so the per-event cost of the shared walk is one engine dispatch
per spec and nothing else.

Each spec's share of every ``feed_batch()`` call is timed separately
(with :func:`time.perf_counter_ns`), so the per-spec
:class:`~repro.analysis.result.AnalysisResult` still carries a
meaningful ``elapsed_ns`` even though the walk is shared — and because
the specs are interleaved at batch granularity, cross-spec comparisons
(VC vs TC) are insulated from machine-load drift between runs.

Quickstart
----------
>>> from repro.api import Session
>>> result = Session(["hb+tc+detect", "hb+vc+detect"]).run(trace)
>>> result["hb+tc+detect"].detection.race_count
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..analysis.engine import PartialOrderAnalysis
from ..analysis.result import AnalysisResult, Race
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.timing import timing_fields
from ..trace.event import Event
from .sources import (
    DEFAULT_BATCH_SIZE,
    ColfSource,
    SourceLike,
    as_event_source,
    iter_event_batches,
)
from .spec import AnalysisSpec, SpecLike, coerce_spec


@dataclass
class SessionResult:
    """The results of one session walk, keyed by spec.

    ``results`` maps each spec's canonical key (``spec.key``) to its
    :class:`AnalysisResult`; indexing accepts a spec object or any
    spelling of its string form.  ``elapsed_ns`` is the wall-clock time
    of the whole walk (source iteration included).  In a multi-spec walk
    the per-spec results carry their own attributed feed times, which sum
    to less than the total; a single-spec walk keeps the engine's
    begin-to-finish timing (which may slightly exceed the walk time, as
    the engine starts its clock first).
    """

    name: str
    num_events: int
    results: Dict[str, AnalysisResult]
    elapsed_ns: int

    @property
    def elapsed_seconds(self) -> float:
        """Total walk time in seconds (derived from :attr:`elapsed_ns`)."""
        return self.elapsed_ns / 1e9

    @property
    def specs(self) -> List[str]:
        """The spec keys, in the order the session ran them."""
        return list(self.results)

    @property
    def primary(self) -> AnalysisResult:
        """The first spec's result (the session's primary configuration)."""
        return next(iter(self.results.values()))

    def __getitem__(self, spec: SpecLike) -> AnalysisResult:
        return self.results[coerce_spec(spec).key]

    def __contains__(self, spec: SpecLike) -> bool:
        try:
            return coerce_spec(spec).key in self.results
        except (ValueError, TypeError):
            return False

    def __iter__(self) -> Iterator[Tuple[str, AnalysisResult]]:
        return iter(self.results.items())

    def __len__(self) -> int:
        return len(self.results)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable representation of the whole session."""
        payload: Dict[str, object] = {"trace": self.name, "events": self.num_events}
        payload.update(timing_fields(self.elapsed_ns))
        payload["specs"] = {key: result.as_dict() for key, result in self.results.items()}
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The :meth:`as_dict` payload rendered as a JSON document."""
        return json.dumps(self.as_dict(), indent=indent)


class Session:
    """Drive N analysis specs through one pass over an event source.

    Parameters
    ----------
    specs:
        The configurations to run — :class:`AnalysisSpec` objects or
        spec strings (``"hb+tc+detect"``), in any mix.  Duplicates (by
        canonical key) are collapsed, preserving first-seen order.
    on_race:
        Optional live-race callback.  It is attached to the *first*
        detecting spec only, so each race is narrated once even when
        several specs detect the same stream (the remaining specs still
        record/count their races independently).
    locate:
        Optional event → source-location callable, forwarded to every
        detecting spec (typically ``CaptureSource.locate``).

    A session is reusable: each :meth:`begin` (or :meth:`run`) builds
    fresh analysis instances, so the same session can be run repeatedly
    — e.g. once per timing repetition.

    Like the engine it drives, the session is exposed at three
    granularities: :meth:`run` pulls a whole source through as event
    batches, :meth:`begin` / :meth:`feed_batch` / :meth:`finish` accept
    one batch at a time (streaming ingest drives this), and :meth:`feed`
    accepts one event at a time as a singleton batch (what a live
    :class:`~repro.api.sources.CaptureSource` pushes into while the
    traced program is still executing).  All three are exactly
    equivalent in results — batching is invisible to the analyses.
    """

    def __init__(
        self,
        specs: Iterable[SpecLike],
        *,
        on_race: Optional[Callable[[Race], None]] = None,
        locate: Optional[Callable[[Event], Optional[str]]] = None,
    ) -> None:
        deduped: Dict[str, AnalysisSpec] = {}
        for spec in specs:
            parsed = coerce_spec(spec)
            deduped.setdefault(parsed.key, parsed)
        if not deduped:
            raise ValueError("a session needs at least one analysis spec")
        self.specs: Tuple[AnalysisSpec, ...] = tuple(deduped.values())
        self._on_race = on_race
        self._locate = locate
        self._runners: List[PartialOrderAnalysis] = []
        self._elapsed_ns: List[int] = []
        self._events_fed = 0
        self._name = ""
        self._walk_started_ns = 0
        # Observability bindings of the current walk (None while the
        # default registry is disabled — the single attribute check the
        # hot paths gate on).
        self._obs: Optional[obs_metrics.MetricsRegistry] = None
        self._obs_batches: Optional[obs_metrics.Counter] = None
        self._obs_events: Optional[obs_metrics.Counter] = None
        self._obs_feed_hists: List[obs_metrics.Histogram] = []

    # -- the incremental driver --------------------------------------------------------

    def begin(self, threads: Optional[Sequence[int]] = None, name: str = "") -> None:
        """Start a walk: build one analysis per spec and begin them all."""
        self._runners = []
        narrator_assigned = False
        for spec in self.specs:
            on_race = None
            if spec.detect and not narrator_assigned:
                on_race = self._on_race
                narrator_assigned = True
            analysis = spec.build(on_race=on_race, locate=self._locate)
            analysis.begin(threads=threads, trace_name=name)
            self._runners.append(analysis)
        self._elapsed_ns = [0] * len(self._runners)
        self._events_fed = 0
        self._name = name
        # Bind the observability instruments once per walk: the feed hot
        # paths then pay one `is None` check when disabled, and plain
        # method calls (no registry lookups) when enabled.
        registry = obs_metrics.get_registry()
        if registry.enabled:
            self._obs = registry
            self._obs_batches = registry.counter("session.batches")
            self._obs_events = registry.counter("session.events_fed")
            self._obs_feed_hists = [
                registry.histogram("session.feed_ns", spec=spec.key) for spec in self.specs
            ]
        else:
            self._obs = None
            self._obs_batches = None
            self._obs_events = None
            self._obs_feed_hists = []
        self._walk_started_ns = time.perf_counter_ns()

    def feed(self, event: Event) -> None:
        """Fan one event out to every spec: a singleton :meth:`feed_batch`.

        This is the incremental surface for live producers — a
        :class:`~repro.api.sources.CaptureSource` pushing events as the
        traced program runs.  Bulk callers should hand whole batches to
        :meth:`feed_batch` instead; :meth:`run` does.  Multi-spec timing
        is attributed per feed call, so here it costs one
        ``perf_counter_ns`` pair per spec per event.
        """
        self.feed_batch((event,))

    def feed_batch(self, events: Sequence[Event]) -> None:
        """Fan a whole batch out to every spec, timing each spec's share.

        Every spec processes the full batch through the engine's
        ``feed_batch`` hot loop before the next spec starts; the specs
        stay interleaved at batch granularity, so cross-spec timing
        comparisons still ride the same machine conditions.  A
        single-spec session skips the attribution entirely — the
        engine's own begin-to-finish timing is exact there, and the walk
        stays free of timer calls, matching a direct ``analysis.run``.

        When the default :mod:`repro.obs.metrics` registry is enabled,
        every spec's per-batch feed time is additionally observed into a
        ``session.feed_ns{spec=...}`` histogram and the
        ``session.batches`` / ``session.events_fed`` counters advance —
        all at batch granularity, and all behind the one ``self._obs``
        check that is this method's entire disabled-mode cost.
        """
        runners = self._runners
        if not runners:
            raise RuntimeError("feed_batch() called before begin()")
        obs = self._obs
        if len(runners) == 1:
            if obs is None:
                runners[0].feed_batch(events)
            else:
                perf = time.perf_counter_ns
                started = perf()
                runners[0].feed_batch(events)
                self._obs_feed_hists[0].observe(perf() - started)
        else:
            elapsed = self._elapsed_ns
            perf = time.perf_counter_ns
            if obs is None:
                for index, analysis in enumerate(runners):
                    started = perf()
                    analysis.feed_batch(events)
                    elapsed[index] += perf() - started
            else:
                hists = self._obs_feed_hists
                for index, analysis in enumerate(runners):
                    started = perf()
                    analysis.feed_batch(events)
                    delta = perf() - started
                    elapsed[index] += delta
                    hists[index].observe(delta)
        self._events_fed += len(events)
        if obs is not None:
            self._obs_batches.inc()
            self._obs_events.inc(len(events))

    def finish(self) -> SessionResult:
        """Close the walk and collect every spec's result."""
        if not self._runners:
            raise RuntimeError("finish() called before begin()")
        walk_elapsed_ns = time.perf_counter_ns() - self._walk_started_ns
        shared_walk = len(self._runners) > 1
        results: Dict[str, AnalysisResult] = {}
        for spec, analysis, elapsed_ns in zip(self.specs, self._runners, self._elapsed_ns):
            result = analysis.finish()
            if shared_walk:
                # The engine measured begin()-to-finish() wall time, which
                # in a shared walk includes the sibling specs; replace it
                # with the time attributed to this spec's feed_batch() calls
                # alone.  (A single-spec walk keeps the engine's timing.)
                result.elapsed_ns = elapsed_ns
            results[spec.key] = result
        obs = self._obs
        if obs is not None:
            # Cold path: one registry lookup per spec per walk.
            for key, result in results.items():
                if result.detection is not None:
                    obs.counter("session.races_found", spec=key).inc(
                        result.detection.race_count
                    )
        return SessionResult(
            name=self._name,
            num_events=self._events_fed,
            results=results,
            elapsed_ns=walk_elapsed_ns,
        )

    # -- checkpoint/restore ------------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Serialize the in-flight walk to a JSON-safe payload.

        Captures every spec's full engine state (every clock's exact
        snapshot, detector maps, timestamps, work counts — see
        :meth:`~repro.analysis.engine.PartialOrderAnalysis.snapshot_state`)
        plus the session's own bookkeeping, between two feed calls.  A
        fresh session constructed with the *same specs* can
        :meth:`restore` the payload and continue feeding from the next
        event: the finished results, work counters included, are
        identical to an uninterrupted walk.  This is what lets a serve
        streaming session survive a server restart.
        """
        if not self._runners:
            raise RuntimeError("checkpoint() called before begin()")
        return {
            "name": self._name,
            "events_fed": self._events_fed,
            "elapsed_ns": list(self._elapsed_ns),
            "specs": [spec.key for spec in self.specs],
            "analyses": {
                spec.key: analysis.snapshot_state()
                for spec, analysis in zip(self.specs, self._runners)
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Resume a walk from a :meth:`checkpoint` payload.

        The session must have been constructed with the same specs (by
        canonical key, in the same order) as the one that checkpointed.
        Races reported before the checkpoint do not re-fire ``on_race``.
        """
        keys = [spec.key for spec in self.specs]
        if list(state["specs"]) != keys:  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint is for specs {state['specs']!r}, session has {keys!r}"
            )
        # begin() builds fresh runners and binds obs; each runner then
        # re-begins inside restore_state with the snapshot's universe.
        self.begin(name=str(state["name"]))
        analyses = state["analyses"]
        for spec, analysis in zip(self.specs, self._runners):
            analysis.restore_state(analyses[spec.key])  # type: ignore[index]
        self._events_fed = int(state["events_fed"])  # type: ignore[arg-type]
        self._elapsed_ns = [int(ns) for ns in state["elapsed_ns"]]  # type: ignore[union-attr]

    # -- the one-call driver -----------------------------------------------------------

    def run(
        self,
        source: SourceLike,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> SessionResult:
        """One pass over ``source``, every spec riding the same batched walk.

        ``source`` may be anything :func:`~repro.api.sources.as_event_source`
        accepts: an :class:`EventSource`, a :class:`Trace`, a file path,
        a recorder, a benchmark profile, or a generator callable.  The
        walk pulls the source through
        :func:`~repro.api.sources.iter_event_batches` — native batches
        when the source has them, the fallback adapter otherwise — and
        feeds each batch whole via :meth:`feed_batch`.

        A source built here from a raw object (a colf path opens an mmap)
        is closed when the walk ends; a source the caller passed is left
        open.  ``batch_size`` is validated before any analysis state is
        built, so a rejected call leaves the session reusable.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        event_source = as_event_source(source)
        try:
            with obs_tracing.span(
                "session.run", trace=event_source.name, specs=len(self.specs)
            ) as walk_span:
                self.begin(threads=event_source.threads(), name=event_source.name)
                feed_batch = self.feed_batch
                for batch in iter_event_batches(event_source, batch_size):
                    feed_batch(batch)
                result = self.finish()
                walk_span.set(events=result.num_events)
            return result
        finally:
            if event_source is not source and isinstance(event_source, ColfSource):
                event_source.close()

    # -- introspection -----------------------------------------------------------------

    @property
    def events_fed(self) -> int:
        """Events fed into the current walk so far."""
        return self._events_fed

    @property
    def analyses(self) -> Dict[str, PartialOrderAnalysis]:
        """The live analysis instances of the current walk, keyed by spec.

        Empty before the first :meth:`begin`.  Useful for inspecting
        in-flight state (e.g. per-thread clocks) mid-walk.
        """
        return {spec.key: analysis for spec, analysis in zip(self.specs, self._runners)}


def run_specs(
    source: SourceLike,
    *specs: SpecLike,
    on_race: Optional[Callable[[Race], None]] = None,
) -> SessionResult:
    """Convenience one-liner: ``run_specs(trace, "hb+tc", "hb+vc+detect")``."""
    return Session(specs, on_race=on_race).run(source)
