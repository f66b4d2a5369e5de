"""Versioned on-disk snapshots (``repro-session-snapshot/1``).

One snapshot is one JSON document: a schema-stamped envelope around a
payload — typically a streaming-ingest checkpoint built from
:meth:`repro.api.Session.checkpoint` plus the stream's spool position.
Writes are atomic (``tmp`` + ``os.replace`` in the same directory, the
corpus-index/quarantine discipline), so a crash mid-write leaves the
*previous* complete snapshot; a reader never sees a torn file, only a
missing or fully-formed one.  Unreadable snapshots raise
:class:`SnapshotError` — detectably corrupt, never silently wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Union

#: Schema tag of the snapshot envelope.
SNAPSHOT_SCHEMA = "repro-session-snapshot/1"


class SnapshotError(ValueError):
    """A snapshot file is missing, torn, or of an unknown schema."""


def write_snapshot(path: Union[str, Path], payload: Dict[str, object]) -> Path:
    """Atomically persist ``payload`` under the snapshot envelope.

    The temp file lives next to the target (same filesystem, so
    ``os.replace`` is atomic) and is fsynced before the rename — after a
    crash the file at ``path`` is always a complete, parseable document.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = {"schema": SNAPSHOT_SCHEMA, "saved_unix": time.time(), "payload": payload}
    tmp = path.with_name(path.name + ".tmp")
    data = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return path


def read_snapshot(path: Union[str, Path]) -> Dict[str, object]:
    """Load a snapshot's payload; :class:`SnapshotError` when unusable."""
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"no snapshot at {path}")
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotError(f"unreadable snapshot {path}: {error}") from error
    if not isinstance(envelope, dict) or envelope.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_SCHEMA!r} snapshot")
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError(f"{path} carries no snapshot payload")
    return payload


def snapshot_path_for_stream(recovery_dir: Union[str, Path], name: str) -> Path:
    """Where a named stream's checkpoint lives.

    Stream names are client-chosen free text (often trace paths), so the
    filename is a digest of the name — collision-free and filesystem-safe
    — with the real name kept inside the payload.
    """
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:16]
    return Path(recovery_dir) / f"stream-{digest}.json"
