"""The append-only results log jobs fold into (``repro-serve-results/2``).

One log per corpus (``results.jsonl`` next to ``index.json``), keyed by
``<trace digest>:<spec key>`` — the (trace × spec) cell identity of a
job.  Every completed job's payload (race pairs, race count, per-spec
``elapsed_ns``, worker pid, attempt count) is recorded here, which is
what makes the service idempotent: re-submitting a trace only enqueues
the cells the store does not already hold, and ``repro status
--results`` / the ``results`` protocol op read finished race sets
without touching the workers.  Every cell at once is served in pages
of at most :data:`RESULTS_PAGE` cells (:meth:`ResultsStore.page`), so
one request decodes a page's payloads, not the store's.

Payloads live on disk, not in memory.  :meth:`ResultsStore.record`
appends one JSON line per cell through the journal's
:class:`~repro.recovery.journal.AppendLog` (one ``os.write`` on an
``O_APPEND`` fd, a torn tail cut back before the first append), so a
cell is on disk when ``record`` returns; :meth:`ResultsStore.discard`
appends a tombstone.  Memory holds only ``digest → {spec: (offset,
length)}`` and the live cells' ``(digest, spec)`` keys in sorted order,
and reads ``os.pread`` the lines back.

Opening a store folds the log, skipping corrupt or foreign lines, and
compacts it (tmp + ``os.replace``) when it holds anything but one live
record per cell.  A ``results.json`` beside it, the whole-document store
of schema ``repro-serve-results/1`` this log replaced, is migrated into
the log and then deleted.  The store is thread-safe: the pool's monitor
thread records while handler threads read.
"""

from __future__ import annotations

import json
import os
import threading
import time
from bisect import bisect_left, bisect_right, insort
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..obs.logging import get_logger
from ..recovery.journal import AppendLog

#: Schema tag stamped on (and required of) every results-log line.
RESULTS_SCHEMA = "repro-serve-results/2"

#: Schema of the whole-document ``results.json`` that opening migrates.
LEGACY_RESULTS_SCHEMA = "repro-serve-results/1"

#: Most cells one :meth:`ResultsStore.page` (one ``results`` reply) holds.
RESULTS_PAGE = 100

log = get_logger(__name__)

#: One decoded log line: (digest, spec, payload), payload ``None`` for a tombstone.
_Line = Tuple[str, str, Optional[Dict[str, object]]]


def result_key(digest: str, spec: str) -> str:
    """The store key of one (trace × spec) cell."""
    return f"{digest}:{spec}"


def _encode(digest: str, spec: str, payload: Optional[Dict[str, object]]) -> bytes:
    line = {"schema": RESULTS_SCHEMA, "digest": digest, "spec": spec, "payload": payload}
    return (json.dumps(line, separators=(",", ":")) + "\n").encode("utf-8")


def _decode(raw: bytes) -> Optional[_Line]:
    """A log line's cell, or ``None`` when it is corrupt or foreign."""
    try:
        line = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(line, dict) or line.get("schema") != RESULTS_SCHEMA:
        return None
    digest, spec = line.get("digest"), line.get("spec")
    if not (isinstance(digest, str) and isinstance(spec, str) and "payload" in line):
        return None
    payload = line["payload"]
    if payload is not None and not isinstance(payload, dict):
        return None
    return digest, spec, payload


def _load_legacy(path: Path) -> Dict[str, Dict[str, object]]:
    """The cells of a ``repro-serve-results/1`` document, keyed by ``digest:spec``."""
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: corrupt results store ({error})") from error
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != LEGACY_RESULTS_SCHEMA:
        raise ValueError(
            f"{path}: unsupported results schema {schema!r} "
            f"(expected {LEGACY_RESULTS_SCHEMA!r})"
        )
    results = document.get("results", {})
    if not isinstance(results, dict):
        raise ValueError(f"{path}: corrupt results store (results is not an object)")
    return results


class ResultsStore:
    """Durable map of (trace × spec) cells to their analysis payloads."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        legacy = self.path.with_suffix(".json")
        if legacy == self.path:
            raise ValueError(f"{self.path}: names the document a results log migrates; use .jsonl")
        self._lock = threading.Lock()
        #: Where each live cell's line sits in the log: digest → spec → (offset, length).
        self._cells: Dict[str, Dict[str, Tuple[int, int]]] = {}
        #: The live cells' ``(digest, spec)`` keys, sorted: the order pages follow.
        self._order: List[Tuple[str, str]] = []
        self._log = AppendLog(self.path)
        if self._log.cut_bytes:
            log.warning("%s: cut a torn tail of %d byte(s)", self.path, self._log.cut_bytes)
        try:
            stale = self._fold()
            if legacy.exists():
                self._rewrite(_load_legacy(legacy))
                legacy.unlink()
                log.info("%s: migrated %s into the log", self.path, legacy.name)
            elif stale:
                self._rewrite({})
        except BaseException:
            self._log.close()
            raise

    def _fold(self) -> int:
        """Index the log's live cells; returns how many lines are not one."""
        lines = offset = skipped = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                lines += 1
                line = _decode(raw)
                if line is None:
                    skipped += 1
                else:
                    digest, spec, payload = line
                    specs = self._cells.setdefault(digest, {})
                    if payload is None:
                        specs.pop(spec, None)
                    else:
                        specs[spec] = (offset, len(raw))
                    if not specs:
                        del self._cells[digest]
                offset += len(raw)
        if skipped:
            log.warning("%s: skipped %d corrupt or foreign line(s)", self.path, skipped)
        self._sort()
        return lines - len(self._order)

    def _sort(self) -> None:
        """Rebuild the sorted key list from the offset map."""
        self._order = sorted(
            (digest, spec) for digest, specs in self._cells.items() for spec in specs
        )

    def _live_lines(
        self, legacy: Dict[str, Dict[str, object]]
    ) -> Iterator[Tuple[str, str, bytes]]:
        """(digest, spec, line) of every live cell: ``legacy`` cells the
        log does not hold first, then the log's own lines byte for byte."""
        for key, payload in legacy.items():
            digest, _, spec = key.partition(":")
            if spec and isinstance(payload, dict) and spec not in self._cells.get(digest, {}):
                yield digest, spec, _encode(digest, spec, payload)
        for digest, specs in self._cells.items():
            for spec, (start, length) in specs.items():
                yield digest, spec, self._log.read(start, length)

    def _rewrite(self, legacy: Dict[str, Dict[str, object]]) -> None:
        """Replace the log by one line per live cell (tmp + ``os.replace``)."""
        cells: Dict[str, Dict[str, Tuple[int, int]]] = {}
        offset = 0
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for digest, spec, raw in self._live_lines(legacy):
                handle.write(raw)
                cells.setdefault(digest, {})[spec] = (offset, len(raw))
                offset += len(raw)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._log.close()
        self._log = AppendLog(self.path)
        self._cells = cells
        self._sort()

    def close(self) -> None:
        """Release the log's file descriptor; later records fail, reads raise."""
        with self._lock:
            self._log.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writing -----------------------------------------------------------------------

    def record(self, digest: str, spec: str, payload: Dict[str, object]) -> None:
        """Append one completed cell (stamped); on disk when this returns."""
        entry = dict(payload)
        entry.setdefault("digest", digest)
        entry.setdefault("spec", spec)
        entry["recorded_unix"] = time.time()
        raw = _encode(digest, spec, entry)
        with self._lock:
            offset = self._log.append(raw)
            if offset is None:
                raise ValueError(f"{self.path}: record into a closed results store")
            specs = self._cells.setdefault(digest, {})
            if spec not in specs:
                insort(self._order, (digest, spec))
            specs[spec] = (offset, len(raw))

    def discard(self, digest: str, spec: str) -> None:
        """Drop one cell (used by forced re-runs) by appending a tombstone."""
        with self._lock:
            specs = self._cells.get(digest)
            if specs is None or spec not in specs:
                return
            self._log.append(_encode(digest, spec, None))
            del specs[spec]
            if not specs:
                del self._cells[digest]
            del self._order[bisect_left(self._order, (digest, spec))]

    # -- reading -----------------------------------------------------------------------

    def _payload(self, raw: bytes) -> Dict[str, object]:
        line = _decode(raw)
        if line is None or line[2] is None:
            raise ValueError(f"{self.path}: a stored record no longer reads back")
        return line[2]

    def has(self, digest: str, spec: str) -> bool:
        with self._lock:
            return spec in self._cells.get(digest, ())

    def get(self, digest: str, spec: str) -> Optional[Dict[str, object]]:
        """The payload of one cell, or ``None`` when not yet computed."""
        with self._lock:
            where = self._cells.get(digest, {}).get(spec)
            raw = self._log.read(*where) if where is not None else None
        return self._payload(raw) if raw is not None else None

    def for_trace(self, digest: str) -> Dict[str, Dict[str, object]]:
        """All finished cells of one trace, keyed by spec."""
        with self._lock:
            raws = [
                (spec, self._log.read(*where))
                for spec, where in self._cells.get(digest, {}).items()
            ]
        return {spec: self._payload(raw) for spec, raw in raws}

    def page(
        self, after: Optional[str] = None
    ) -> Tuple[Dict[str, Dict[str, object]], Optional[str]]:
        """The first :data:`RESULTS_PAGE` cells whose keys follow ``after``, and the next cursor.

        Cells come in ``(digest, spec)`` order, keyed by ``digest:spec``;
        the cursor is the page's last key, or ``None`` when no cell
        follows it.  Following the cursors from ``after=None`` returns
        every cell that lives throughout exactly once, whatever is
        recorded or discarded in between.  Only the page's payloads are
        read and decoded.
        """
        start = () if after is None else tuple(after.partition(":")[::2])
        with self._lock:
            at = bisect_right(self._order, start)
            raws = [
                (result_key(digest, spec), self._log.read(*self._cells[digest][spec]))
                for digest, spec in self._order[at : at + RESULTS_PAGE]
            ]
            more = at + RESULTS_PAGE < len(self._order)
        cursor = raws[-1][0] if more else None
        return {key: self._payload(raw) for key, raw in raws}, cursor

    def keys(self) -> List[str]:
        with self._lock:
            return [result_key(digest, spec) for digest, spec in self._order]

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)
