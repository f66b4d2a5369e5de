"""Crash recovery for the serve pipeline: journal, snapshots, quarantine.

``repro serve`` holds three kinds of state that must survive a ``kill
-9`` of the server process:

* **which jobs were in flight** — the append-only :class:`JobJournal`
  records every submit/dispatch/complete/fail/quarantine transition so a
  restarted server can :func:`replay_journal` and re-queue the orphans;
* **where a streaming session was** — :func:`write_snapshot` /
  :func:`read_snapshot` persist the versioned session checkpoints
  (:meth:`repro.api.Session.checkpoint`) that make mid-stream resume
  byte-offset exact;
* **which jobs are poison** — the :class:`QuarantineStore` keeps jobs
  that exhausted their retry budget out of the queue across restarts.

Every durable write in this package is *atomic or detectable*: journal
appends are single ``os.write`` calls of one line through
:class:`~repro.recovery.journal.AppendLog`, the opener the serve results
log shares (a torn tail is skipped by the lenient reader, never mistaken
for a record, and cut off before the next append), and
snapshot/quarantine writes go through ``tmp + os.replace`` (a crash
leaves the previous complete file).  The fault-injection helpers in
``tests/faults.py`` exist to prove exactly that.
"""

from .journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    JournalRecord,
    iter_journal,
    read_journal,
    replay_journal,
)
from .quarantine import QUARANTINE_SCHEMA, QuarantineStore
from .snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    read_snapshot,
    snapshot_path_for_stream,
    write_snapshot,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "JobJournal",
    "JournalRecord",
    "iter_journal",
    "read_journal",
    "replay_journal",
    "QUARANTINE_SCHEMA",
    "QuarantineStore",
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "read_snapshot",
    "snapshot_path_for_stream",
    "write_snapshot",
]
