"""The schema-versioned results store jobs fold into.

One store per corpus (``results.json`` next to ``index.json``), keyed by
``<trace digest>:<spec key>`` — the (trace × spec) cell identity of a
job.  Every completed job's payload (race pairs, race count, per-spec
``elapsed_ns``, worker pid, attempt count) is recorded here, which is
what makes the service idempotent: re-submitting a trace only enqueues
the cells the store does not already hold, and ``repro status
--results`` / the ``results`` protocol op read finished race sets
without touching the workers.

The store is thread-safe (the pool's monitor thread records while
handler threads read) and persisted atomically.  Persistence is
*throttled*: the full document is rewritten at most once per
``persist_interval`` seconds (rewriting every cell on every completion
would be O(N²) serialization across a large batch, paid on the pool
monitor's callback path), with an explicit :meth:`flush` that the
scheduler calls on shutdown.  Reads always come from memory, so
throttling only bounds crash-durability — and every cell is
recomputable, so a lost tail just re-runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Schema identifier of the results document; bumped on breaking changes.
RESULTS_SCHEMA = "repro-serve-results/1"


def result_key(digest: str, spec: str) -> str:
    """The store key of one (trace × spec) cell."""
    return f"{digest}:{spec}"


class ResultsStore:
    """Durable map of (trace × spec) cells to their analysis payloads."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        persist_interval: float = 1.0,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.persist_interval = persist_interval
        self._results: Dict[str, Dict[str, object]] = {}
        self._lock = threading.RLock()
        self._dirty = False
        # -inf, not 0.0: time.monotonic() counts from an arbitrary epoch
        # (boot, on Linux), so on a freshly booted machine 0.0 would make
        # the first record() look recent and throttle the initial save.
        self._last_save_monotonic = float("-inf")
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        try:
            payload = json.loads(self.path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"{self.path}: corrupt results store ({error})") from error
        schema = payload.get("schema")
        if schema != RESULTS_SCHEMA:
            raise ValueError(
                f"{self.path}: unsupported results schema {schema!r} (expected {RESULTS_SCHEMA!r})"
            )
        self._results = dict(payload.get("results", {}))

    def _save_locked(self) -> None:
        if self.path is None:
            return
        payload = {"schema": RESULTS_SCHEMA, "results": self._results}
        temp = self.path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(temp, self.path)
        self._dirty = False
        self._last_save_monotonic = time.monotonic()

    def _maybe_save_locked(self) -> None:
        self._dirty = True
        if time.monotonic() - self._last_save_monotonic >= self.persist_interval:
            self._save_locked()

    def flush(self) -> None:
        """Persist any unsaved cells immediately (call on shutdown)."""
        with self._lock:
            if self._dirty:
                self._save_locked()

    # -- writing -----------------------------------------------------------------------

    def record(self, digest: str, spec: str, payload: Dict[str, object]) -> None:
        """Fold one completed cell in (stamped; persisted throttled)."""
        entry = dict(payload)
        entry.setdefault("digest", digest)
        entry.setdefault("spec", spec)
        entry["recorded_unix"] = time.time()
        with self._lock:
            self._results[result_key(digest, spec)] = entry
            self._maybe_save_locked()

    def discard(self, digest: str, spec: str) -> None:
        """Drop one cell (used by forced re-runs)."""
        with self._lock:
            if self._results.pop(result_key(digest, spec), None) is not None:
                self._maybe_save_locked()

    # -- reading -----------------------------------------------------------------------

    def has(self, digest: str, spec: str) -> bool:
        with self._lock:
            return result_key(digest, spec) in self._results

    def get(self, digest: str, spec: str) -> Optional[Dict[str, object]]:
        """The payload of one cell, or ``None`` when not yet computed."""
        with self._lock:
            payload = self._results.get(result_key(digest, spec))
            return dict(payload) if payload is not None else None

    def for_trace(self, digest: str) -> Dict[str, Dict[str, object]]:
        """All finished cells of one trace, keyed by spec."""
        prefix = f"{digest}:"
        with self._lock:
            return {
                key[len(prefix):]: dict(payload)
                for key, payload in self._results.items()
                if key.startswith(prefix)
            }

    def all(self) -> Dict[str, Dict[str, object]]:
        """Every finished cell, keyed by ``digest:spec``."""
        with self._lock:
            return {key: dict(payload) for key, payload in self._results.items()}

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._results)

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)
