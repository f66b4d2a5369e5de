"""The persisted poison-job quarantine (``repro-serve-quarantine/1``).

A job that keeps crashing its worker (or timing out) past the retry
budget is *poison*: re-queueing it forever would grind the fleet down,
and dropping it silently would hide a real bug.  The scheduler parks
such jobs here instead — a small JSON document listing each quarantined
job with the error that condemned it — and ``repro status`` surfaces the
list to operators.  Quarantine survives restarts: journal replay skips
quarantined job ids, so a poison job stays parked until an operator
clears it.

Persistence follows the whole-document discipline of the corpus index
and the session snapshots: ``tmp + os.replace`` atomic writes, a torn
predecessor is impossible, and an unreadable file (hand-edited,
foreign) starts an empty quarantine rather than crashing the server.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Schema tag of the quarantine document.
QUARANTINE_SCHEMA = "repro-serve-quarantine/1"


class QuarantineStore:
    """Thread-safe persisted map of quarantined jobs, keyed by job id."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, object]] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(document, dict) or document.get("schema") != QUARANTINE_SCHEMA:
            return
        jobs = document.get("jobs")
        if isinstance(jobs, dict):
            self._jobs = {
                str(job_id): dict(entry)
                for job_id, entry in jobs.items()
                if isinstance(entry, dict)
            }

    def _save_locked(self) -> None:
        document = {"schema": QUARANTINE_SCHEMA, "jobs": self._jobs}
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)

    def add(
        self,
        job_id: str,
        *,
        digest: str,
        spec: str,
        trace_name: str,
        error: str,
        attempts: int,
    ) -> None:
        """Park one job (idempotent; persists immediately)."""
        with self._lock:
            self._jobs[job_id] = {
                "job_id": job_id,
                "digest": digest,
                "spec": spec,
                "trace": trace_name,
                "error": error,
                "attempts": attempts,
                "quarantined_unix": time.time(),
            }
            self._save_locked()

    def remove(self, job_id: str) -> bool:
        """Release one job back to schedulability; True when it was parked."""
        with self._lock:
            removed = self._jobs.pop(job_id, None) is not None
            if removed:
                self._save_locked()
            return removed

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._jobs

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def get(self, job_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            entry = self._jobs.get(job_id)
            return dict(entry) if entry is not None else None

    def all(self) -> List[Dict[str, object]]:
        """Every quarantined job, in quarantine order."""
        with self._lock:
            return [dict(entry) for entry in self._jobs.values()]
