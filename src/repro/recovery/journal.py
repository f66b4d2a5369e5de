"""The durable job journal (``repro-serve-journal/1``) and its append-only file.

An append-only JSON-lines file recording every job state transition the
scheduler makes: ``submit`` when a (trace × spec) cell is queued,
``dispatch`` each time it is handed to a worker, and ``complete`` /
``fail`` / ``quarantine`` when it reaches a terminal state.  On restart
the server replays the journal: any job whose *last* recorded event is
non-terminal was in flight when the process died and gets re-queued
(idempotently — the results store is content-addressed, so a job that
actually finished but whose ``complete`` record was lost is simply
served from cache on resubmit).

Durability contract (the same one :class:`repro.obs.tracing.SpanExporter`
relies on), kept by :class:`AppendLog`, which the journal and the
results log (:mod:`repro.serve.results`) both open their files with:
the file is opened ``O_APPEND`` and every record goes out as a single
``os.write`` of one encoded line, which POSIX guarantees lands as one
contiguous append — concurrent scheduler threads never interleave
partial JSON, and a crash can only tear the *final* line.  Before the
first append the opener cuts a file that does not end in ``\\n`` back to
its last newline, so a torn line never glues itself to the next record,
and a short write is cut back and raised, so it cannot leave a tear
mid-file.  The reader is lenient in the same way as
:func:`repro.obs.tracing.read_spans`: torn, corrupt or foreign lines are
skipped (and optionally described into an ``errors`` list), never fatal.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: Schema tag stamped on (and required of) every journal line.
JOURNAL_SCHEMA = "repro-serve-journal/1"

#: Journal events that end a job's lifecycle; anything else left as a
#: job's last event marks it as orphaned by a crash.
TERMINAL_EVENTS = frozenset({"complete", "fail", "quarantine"})


#: How far back :func:`_cut_torn_tail` reads per step looking for a newline.
_TAIL_BLOCK = 64 * 1024


def _cut_torn_tail(fd: int) -> int:
    """Truncate ``fd``'s file just after its last ``\\n``; returns the bytes cut."""
    size = os.fstat(fd).st_size
    end = size
    while end > 0:
        start = max(0, end - _TAIL_BLOCK)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    if end != size:
        os.ftruncate(fd, end)
    return size - end


class AppendLog:
    """An ``O_APPEND`` file of newline-terminated records, one ``os.write`` each.

    Opening cuts a torn tail (bytes after the last ``\\n``) off the file,
    counted in :attr:`cut_bytes`.  :meth:`append` writes one whole record
    and returns the offset it landed at; appends are serialized by a
    lock, so a short write can be truncated back to where it began
    before it is raised.  After :meth:`close`, appends are no-ops that
    return ``None`` and reads raise :class:`ValueError`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self.cut_bytes = _cut_torn_tail(fd)
        except BaseException:
            os.close(fd)
            raise
        self._fd: Optional[int] = fd
        self._lock = threading.Lock()

    def append(self, data: bytes) -> Optional[int]:
        """Append one record (``data`` ends in ``\\n``); returns its offset."""
        with self._lock:
            fd = self._fd
            if fd is None:
                return None
            written = os.write(fd, data)
            # O_APPEND left the fd's offset at the end of this write.
            start = os.lseek(fd, 0, os.SEEK_CUR) - written
            if written != len(data):
                os.ftruncate(fd, start)
                raise OSError(
                    errno.EIO,
                    f"short write ({written} of {len(data)} bytes), cut back",
                    str(self.path),
                )
            return start

    def read(self, offset: int, length: int) -> bytes:
        """The ``length`` bytes at ``offset`` (one ``os.pread``)."""
        with self._lock:
            if self._fd is None:
                raise ValueError(f"{self.path}: read from a closed log")
            data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise ValueError(f"{self.path}: no {length}-byte record at offset {offset}")
        return data

    def close(self) -> None:
        with self._lock:
            fd = self._fd
            self._fd = None
        if fd is not None:
            os.close(fd)


class JobJournal:
    """Append-only writer of job state transitions.

    Safe to share between threads: every :meth:`record` is one
    :meth:`AppendLog.append`.  A ``None``-path journal is not
    supported — callers that run without durability simply do not
    construct one (the scheduler treats its journal as optional).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._log = AppendLog(path)
        self.path = self._log.path

    def record(self, event: str, job_id: str, **fields: object) -> None:
        """Append one transition; a no-op after :meth:`close`."""
        payload: Dict[str, object] = {
            "schema": JOURNAL_SCHEMA,
            "event": event,
            "job_id": job_id,
            "unix": time.time(),
        }
        payload.update(fields)
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        self._log.append(line.encode("utf-8"))

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def iter_journal(
    path: Union[str, Path],
    *,
    strict: bool = False,
    errors: Optional[List[str]] = None,
) -> Iterator[Dict[str, object]]:
    """Lazily parse a journal file (lenient by default, like span files).

    Corrupt or foreign lines are skipped — the journal of a crashed
    server may legitimately end in a torn line — and described into
    ``errors`` when a list is supplied.  ``strict=True`` raises instead,
    for tests that pin the format.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as error:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: not valid JSON: {error}"
                    ) from error
                if errors is not None:
                    errors.append(f"{path}:{line_number}: not valid JSON")
                continue
            if (
                not isinstance(record, dict)
                or record.get("schema") != JOURNAL_SCHEMA
                or not isinstance(record.get("job_id"), str)
                or not isinstance(record.get("event"), str)
            ):
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: not a {JOURNAL_SCHEMA!r} record: "
                        f"{text[:80]}"
                    )
                if errors is not None:
                    errors.append(f"{path}:{line_number}: not a journal record")
                continue
            yield record


def read_journal(
    path: Union[str, Path],
    *,
    strict: bool = False,
    errors: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Load a whole journal file (missing file = empty journal)."""
    if not Path(path).exists():
        return []
    return list(iter_journal(path, strict=strict, errors=errors))


@dataclass
class JournalRecord:
    """The replayed lifecycle of one job: its identity + last transition."""

    job_id: str
    digest: str = ""
    spec: str = ""
    trace_name: str = ""
    last_event: str = ""
    error: Optional[str] = None
    events: List[str] = field(default_factory=list)

    @property
    def orphaned(self) -> bool:
        """True when the job never reached a terminal state — it was in
        flight (queued or running) when the process died."""
        return self.last_event not in TERMINAL_EVENTS


def replay_journal(records: List[Dict[str, object]]) -> Dict[str, JournalRecord]:
    """Fold journal lines into per-job lifecycle state, in first-seen order.

    Identity fields (digest/spec/trace) are carried by the ``submit``
    record and retained across later transitions; a job whose submit
    line was torn away still replays (from its job_id alone) but cannot
    be re-queued — callers skip records with an empty digest.
    """
    jobs: Dict[str, JournalRecord] = {}
    for record in records:
        job_id = str(record["job_id"])
        entry = jobs.get(job_id)
        if entry is None:
            entry = jobs[job_id] = JournalRecord(job_id=job_id)
        for attr in ("digest", "spec"):
            value = record.get(attr)
            if isinstance(value, str) and value:
                setattr(entry, attr, value)
        trace_name = record.get("trace")
        if isinstance(trace_name, str) and trace_name:
            entry.trace_name = trace_name
        entry.last_event = str(record["event"])
        entry.events.append(entry.last_event)
        error = record.get("error")
        entry.error = str(error) if isinstance(error, str) else None
    return jobs
