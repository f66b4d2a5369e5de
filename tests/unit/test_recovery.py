"""Unit tests of :mod:`repro.recovery`: journal, snapshots, quarantine.

The durability contract under test is *atomic or detectable*: journal
appends are single-line ``os.write`` calls whose only possible tear is
the final line (skipped by the lenient reader, and cut off before the
next append), and snapshot/quarantine documents go through tmp +
``os.replace`` so a reader only ever sees a complete file.  The
torn-write helpers of :mod:`faults` model the crashes.
"""

import json
import os
import socket

import pytest

from faults import append_garbage, tear_tail
from repro.recovery import (
    JOURNAL_SCHEMA,
    JobJournal,
    QuarantineStore,
    SnapshotError,
    iter_journal,
    read_journal,
    read_snapshot,
    replay_journal,
    snapshot_path_for_stream,
    write_snapshot,
)
from repro.serve.protocol import encode_message, read_message
from repro.serve.server import ServeHandler, _StreamState


class TestJobJournal:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("submit", "j1", digest="d1", spec="hb+tc", trace="t")
            journal.record("dispatch", "j1", digest="d1", spec="hb+tc")
            journal.record("complete", "j1")
        records = read_journal(path, strict=True)
        assert [r["event"] for r in records] == ["submit", "dispatch", "complete"]
        assert all(r["schema"] == JOURNAL_SCHEMA for r in records)
        assert records[0]["digest"] == "d1" and records[0]["unix"] > 0

    def test_record_after_close_is_a_noop(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record("submit", "j1", digest="d", spec="s", trace="t")
        journal.close()
        journal.record("complete", "j1")
        assert len(read_journal(journal.path)) == 1

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("submit", "j1", digest="d", spec="s", trace="t")
            journal.record("submit", "j2", digest="d", spec="s2", trace="t")
        tear_tail(path, drop_bytes=7)  # crash mid-append of the last line
        errors = []
        records = read_journal(path, errors=errors)
        assert [r["job_id"] for r in records] == ["j1"]
        assert len(errors) == 1 and "not valid JSON" in errors[0]

    def test_garbage_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("submit", "j1", digest="d", spec="s", trace="t")
        append_garbage(path)  # unterminated JSON tail
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n" + json.dumps({"schema": "other/1", "x": 1}) + "\n\n")
        records = read_journal(path)
        assert [r["job_id"] for r in records] == ["j1"]
        with pytest.raises(ValueError):
            list(iter_journal(path, strict=True))

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # Without the cut, "submit b" would be glued onto the torn line
        # and skipped on replay.
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("submit", "a", digest="d", spec="s", trace="t")
        line = json.dumps({"schema": JOURNAL_SCHEMA, "event": "dispatch", "job_id": "a"})
        append_garbage(path, line[: len(line) // 2].encode())
        with JobJournal(path) as journal:
            journal.record("submit", "b", digest="d", spec="s2", trace="t")
            journal.record("complete", "a")
        records = read_journal(path, strict=True)
        assert [(r["event"], r["job_id"]) for r in records] == [
            ("submit", "a"),
            ("submit", "b"),
            ("complete", "a"),
        ]

    def test_a_tear_with_no_newline_at_all_empties_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_garbage(path)
        with JobJournal(path) as journal:
            journal.record("submit", "a", digest="d", spec="s", trace="t")
        assert [r["job_id"] for r in read_journal(path, strict=True)] == ["a"]

    def test_short_write_is_cut_back_and_raised(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.record("submit", "a", digest="d", spec="s", trace="t")
        before = path.read_bytes()
        real_write = os.write

        def half_write(fd, data):
            if os.fstat(fd).st_ino == path.stat().st_ino:
                return real_write(fd, data[: len(data) // 2])
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", half_write)
        with pytest.raises(OSError, match="short write"):
            journal.record("submit", "b", digest="d", spec="s2", trace="t")
        monkeypatch.undo()
        assert path.read_bytes() == before
        journal.record("complete", "a")
        journal.close()
        records = read_journal(path, strict=True)
        assert [(r["event"], r["job_id"]) for r in records] == [("submit", "a"), ("complete", "a")]

    def test_replay_folds_lifecycles_and_flags_orphans(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("submit", "done", digest="d1", spec="a", trace="t1")
            journal.record("submit", "queued", digest="d1", spec="b", trace="t1")
            journal.record("submit", "running", digest="d2", spec="a", trace="t2")
            journal.record("dispatch", "done", digest="d1", spec="a")
            journal.record("dispatch", "running", digest="d2", spec="a")
            journal.record("complete", "done")
            journal.record("submit", "poison", digest="d2", spec="c", trace="t2")
            journal.record("quarantine", "poison", error="worker crashed", attempts=3)
        jobs = replay_journal(read_journal(path))
        assert set(jobs) == {"done", "queued", "running", "poison"}
        assert not jobs["done"].orphaned and not jobs["poison"].orphaned
        assert jobs["queued"].orphaned and jobs["running"].orphaned
        # identity carried from the submit line across later transitions
        assert jobs["running"].digest == "d2" and jobs["running"].spec == "a"
        assert jobs["running"].trace_name == "t2"
        assert jobs["poison"].error == "worker crashed"
        assert jobs["done"].events == ["submit", "dispatch", "complete"]


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"events": 42, "name": "s"})
        assert read_snapshot(path) == {"events": 42, "name": "s"}

    def test_rewrite_is_atomic_or_previous(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"events": 1})
        write_snapshot(path, {"events": 2})
        assert read_snapshot(path)["events"] == 2
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_torn_and_foreign_snapshots_are_detectable(self, tmp_path):
        path = tmp_path / "snap.json"
        with pytest.raises(SnapshotError):
            read_snapshot(path)
        write_snapshot(path, {"events": 3})
        tear_tail(path, drop_bytes=5)
        with pytest.raises(SnapshotError):
            read_snapshot(path)
        path.write_text(json.dumps({"schema": "other/9", "payload": {}}))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_stream_snapshot_paths_are_stable_and_safe(self, tmp_path):
        first = snapshot_path_for_stream(tmp_path, "../weird/../name with spaces")
        again = snapshot_path_for_stream(tmp_path, "../weird/../name with spaces")
        other = snapshot_path_for_stream(tmp_path, "other")
        assert first == again and first != other
        assert first.parent == tmp_path and first.name.startswith("stream-")


class _HandlerHost:
    """The server attributes a ServeHandler reads for stream ops."""

    obs_registry = None

    def __init__(self, recovery_dir):
        self.recovery_dir = recovery_dir


def answer(recovery_dir, request):
    """One request through a ServeHandler over a socket pair (no TCP server)."""
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.sendall(encode_message(request))
        ours.shutdown(socket.SHUT_WR)
        ServeHandler(theirs, ("socketpair", 0), _HandlerHost(recovery_dir))
        theirs.shutdown(socket.SHUT_WR)
        with ours.makefile("rb") as reader:
            return read_message(reader)


class TestStreamResume:
    def test_refused_resume_leaves_the_spool_untouched(self, tmp_path):
        """A snapshot the session refuses must not truncate or append to the spool."""
        stream = _StreamState("old", ["hb+tc+detect"], save=True, checkpoint_dir=tmp_path)
        stream.feed_lines(["T1|w(x)", "T2|w(x)", "T1|r(x)"])
        stream.abort()  # writes a final checkpoint and keeps it and its spool
        payload = read_snapshot(stream.snapshot_path)
        for state in payload["session"]["analyses"].values():
            state["version"] = 1  # written before exact clock snapshots
        write_snapshot(stream.snapshot_path, payload)
        spool = stream.spool_path.read_bytes()

        response = answer(tmp_path, {"op": "stream_resume", "name": "old"})
        assert not response["ok"]
        assert "unsupported engine snapshot version 1" in response["error"]
        assert stream.spool_path.read_bytes() == spool


class TestQuarantineStore:
    def test_add_remove_and_introspection(self, tmp_path):
        store = QuarantineStore(tmp_path / "q.json")
        store.add(
            "j1", digest="d", spec="hb+tc", trace_name="t", error="worker crashed", attempts=3
        )
        assert "j1" in store and len(store) == 1
        assert store.get("j1")["error"] == "worker crashed"
        assert [entry["job_id"] for entry in store.all()] == ["j1"]
        assert store.remove("j1") is True
        assert store.remove("j1") is False
        assert "j1" not in store and len(store) == 0

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "q.json"
        QuarantineStore(path).add(
            "j1", digest="d", spec="s", trace_name="t", error="boom", attempts=2
        )
        reloaded = QuarantineStore(path)
        assert "j1" in reloaded and reloaded.get("j1")["attempts"] == 2

    def test_corrupt_or_foreign_file_starts_empty(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"torn')
        assert len(QuarantineStore(path)) == 0
        path.write_text(json.dumps({"schema": "other/1", "jobs": {"x": {}}}))
        assert len(QuarantineStore(path)) == 0
