"""Unit tests of the append-only results log (:mod:`repro.serve.results`).

Restart tests follow one idiom: write through one instance, reload in a
fresh one, compare the payloads as ``json.dumps(..., sort_keys=True)``.
The torn-write helpers of :mod:`faults` model the crashes.
"""

import json
import os
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import pytest

from faults import append_garbage, tear_tail
from repro.serve.client import ServeClient
from repro.serve.protocol import encode_message
from repro.serve.results import (
    LEGACY_RESULTS_SCHEMA,
    RESULTS_PAGE,
    RESULTS_SCHEMA,
    ResultsStore,
    result_key,
)
from repro.serve.server import ServeHandler

DIGESTS = [f"{index:064x}" for index in range(1, 6)]


def canonical(payloads):
    return json.dumps(payloads, sort_keys=True)


def payload(seed, races=3):
    """A worker-shaped payload: race pairs, racy variables, counts."""
    return {
        "race_count": races,
        "races": [f"v{seed}: (t1@{j}) || (t2, event {j}, write)" for j in range(races)],
        "racy_variables": [f"v{seed}"],
        "events": 100 + seed,
        "elapsed_ns": 1000 * seed,
        "worker_pid": 4242,
    }


def every_cell(store):
    """Every live cell by ``digest:spec``, read one ``get`` at a time."""
    return {key: store.get(*key.partition(":")[::2]) for key in store.keys()}


def log_lines(path):
    return path.read_bytes().splitlines()


class TestRestart:
    def test_payloads_are_byte_identical_across_a_reopen(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsStore(path) as store:
            for index, digest in enumerate(DIGESTS):
                store.record(digest, "hb+tc+detect", payload(index))
                store.record(digest, "shb+vc+detect", payload(index + 10))
            written = canonical(every_cell(store))
            one = canonical(store.for_trace(DIGESTS[2]))
        with ResultsStore(path) as reopened:
            assert len(reopened) == 2 * len(DIGESTS)
            assert canonical(every_cell(reopened)) == written
            assert canonical(reopened.for_trace(DIGESTS[2])) == one
        assert all(json.loads(line)["schema"] == RESULTS_SCHEMA for line in log_lines(path))

    def test_compaction_keeps_payloads_byte_identical(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsStore(path) as store:
            for index, digest in enumerate(DIGESTS):
                store.record(digest, "hb+tc", payload(index))
            store.record(DIGESTS[0], "hb+tc", payload(99))  # supersedes
            store.discard(DIGESTS[1], "hb+tc")  # a tombstone
            expected = canonical(every_cell(store))
        assert len(log_lines(path)) == len(DIGESTS) + 2
        with ResultsStore(path) as reopened:
            assert canonical(every_cell(reopened)) == expected
            assert reopened.get(DIGESTS[0], "hb+tc")["events"] == 199
        # one line per live cell, and no temp file left behind
        assert len(log_lines(path)) == len(DIGESTS) - 1
        assert not (tmp_path / "results.jsonl.tmp").exists()
        compacted = path.read_bytes()
        with ResultsStore(path) as third:
            assert canonical(every_cell(third)) == expected
        assert path.read_bytes() == compacted  # a compact log is not rewritten

    def test_tombstone_survives_a_restart(self, tmp_path):
        path = tmp_path / "results.jsonl"
        digest = DIGESTS[0]
        with ResultsStore(path) as store:
            store.record(digest, "hb+tc", payload(0))
            store.record(digest, "hb+vc", payload(1))
            store.discard(digest, "hb+tc")
        with ResultsStore(path) as reopened:
            assert not reopened.has(digest, "hb+tc") and reopened.has(digest, "hb+vc")
            assert set(reopened.for_trace(digest)) == {"hb+vc"}
            assert len(reopened) == 1

    def test_torn_tail_is_skipped_and_later_records_survive(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsStore(path) as store:
            store.record(DIGESTS[0], "hb+tc", payload(0))
            store.record(DIGESTS[1], "hb+tc", payload(1))
            kept = canonical(store.get(DIGESTS[0], "hb+tc"))
        tear_tail(path, drop_bytes=9)  # crash mid-append of the last record
        with ResultsStore(path) as store:
            assert not store.has(DIGESTS[1], "hb+tc")
            store.record(DIGESTS[2], "hb+tc", payload(2))
            later = canonical(store.get(DIGESTS[2], "hb+tc"))
        with ResultsStore(path) as reopened:
            assert reopened.keys() == sorted(
                [result_key(DIGESTS[0], "hb+tc"), result_key(DIGESTS[2], "hb+tc")]
            )
            assert canonical(reopened.get(DIGESTS[0], "hb+tc")) == kept
            assert canonical(reopened.get(DIGESTS[2], "hb+tc")) == later

    def test_corrupt_and_foreign_lines_are_skipped_and_compacted_away(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsStore(path) as store:
            store.record(DIGESTS[0], "hb+tc", payload(0))
        append_garbage(path, b'{"torn":\n\n')
        foreign = {"schema": "other/1", "digest": DIGESTS[1], "spec": "hb+tc", "payload": {}}
        append_garbage(path, json.dumps(foreign).encode() + b"\n")
        with ResultsStore(path) as store:
            assert store.keys() == [result_key(DIGESTS[0], "hb+tc")]
            store.record(DIGESTS[2], "hb+tc", payload(2))
        assert len(log_lines(path)) == 2
        with ResultsStore(path) as reopened:
            assert len(reopened) == 2

    def test_short_write_is_cut_back_raised_and_not_indexed(self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        store = ResultsStore(path)
        store.record(DIGESTS[0], "hb+tc", payload(0))
        before = path.read_bytes()
        real_write = os.write

        def half_write(fd, data):
            if os.fstat(fd).st_ino == path.stat().st_ino:
                return real_write(fd, data[: len(data) // 2])
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", half_write)
        with pytest.raises(OSError, match="short write"):
            store.record(DIGESTS[1], "hb+tc", payload(1))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not store.has(DIGESTS[1], "hb+tc") and len(store) == 1
        store.record(DIGESTS[2], "hb+tc", payload(2))
        store.close()
        with ResultsStore(path) as reopened:
            assert len(reopened) == 2 and reopened.has(DIGESTS[2], "hb+tc")

    def test_concurrent_records_and_reads_keep_every_offset(self, tmp_path):
        # Eight writers and two readers on two cores, switching threads
        # as often as the interpreter allows: an offset taken from
        # another thread's append would hand back the wrong payload.
        path = tmp_path / "results.jsonl"
        store = ResultsStore(path)
        errors = []

        def writer(worker):
            try:
                for index in range(40):
                    spec = f"w{worker}-{index}"
                    store.record(DIGESTS[index % 5], spec, payload(worker * 100 + index))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def reader():
            try:
                for _ in range(40):
                    for spec, entry in store.for_trace(DIGESTS[0]).items():
                        assert entry["spec"] == spec
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(store) == 8 * 40
        store.close()
        with ResultsStore(path) as reopened:
            assert len(reopened) == 8 * 40
            for worker in range(8):
                for index in range(40):
                    entry = reopened.get(DIGESTS[index % 5], f"w{worker}-{index}")
                    assert entry["events"] == 100 + worker * 100 + index
        assert path.read_bytes().count(b"\n") == 8 * 40

    def test_closed_store_refuses_records(self, tmp_path):
        store = ResultsStore(tmp_path / "results.jsonl")
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.record(DIGESTS[0], "hb+tc", payload(0))


def legacy_document(cells):
    """A ``results.json`` as the whole-document store wrote it."""
    results = {}
    for index, (digest, spec) in enumerate(cells):
        entry = payload(index)
        entry.update(digest=digest, spec=spec, recorded_unix=1.7e9 + index)
        results[result_key(digest, spec)] = entry
    return {"schema": LEGACY_RESULTS_SCHEMA, "results": results}


class TestMigration:
    def test_results_json_migrates_once_and_is_deleted(self, tmp_path):
        legacy = tmp_path / "results.json"
        cells = [(DIGESTS[0], "hb+tc"), (DIGESTS[0], "hb+vc"), (DIGESTS[1], "hb+tc")]
        document = legacy_document(cells)
        legacy.write_text(json.dumps(document))
        path = tmp_path / "results.jsonl"
        with ResultsStore(path) as store:
            assert canonical(every_cell(store)) == canonical(document["results"])
            store.record(DIGESTS[2], "hb+tc", payload(2))
        assert not legacy.exists()
        migrated = path.read_bytes()
        with ResultsStore(path) as reopened:
            assert len(reopened) == 4
            for key, entry in document["results"].items():
                digest, _, spec = key.partition(":")
                assert canonical(reopened.get(digest, spec)) == canonical(entry)
        assert path.read_bytes() == migrated  # nothing left to migrate or compact

    def test_a_crash_before_the_delete_migrates_again_and_the_log_wins(self, tmp_path):
        legacy = tmp_path / "results.json"
        document = legacy_document([(DIGESTS[0], "hb+tc"), (DIGESTS[1], "hb+tc")])
        legacy.write_text(json.dumps(document))
        path = tmp_path / "results.jsonl"
        with ResultsStore(path) as store:
            store.record(DIGESTS[0], "hb+tc", payload(50))  # newer than the document
            expected = canonical(every_cell(store))
        legacy.write_text(json.dumps(document))  # as if the unlink never happened
        with ResultsStore(path) as store:
            assert canonical(every_cell(store)) == expected
        assert not legacy.exists()
        assert len(log_lines(path)) == 2  # one line per cell, none superseded

    def test_corrupt_document_is_refused_and_kept(self, tmp_path):
        legacy = tmp_path / "results.json"
        legacy.write_text('{"torn')
        with pytest.raises(ValueError, match="corrupt results store"):
            ResultsStore(tmp_path / "results.jsonl")
        assert legacy.read_text() == '{"torn'

    def test_foreign_schema_document_is_refused_and_kept(self, tmp_path):
        legacy = tmp_path / "results.json"
        legacy.write_text(json.dumps({"schema": "repro-serve-results/9", "results": {}}))
        with pytest.raises(ValueError, match="unsupported results schema"):
            ResultsStore(tmp_path / "results.jsonl")
        assert legacy.exists()

    def test_a_log_named_like_the_document_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="use .jsonl"):
            ResultsStore(tmp_path / "results.json")


class TestMemory:
    def test_store_holds_no_payloads_in_ram(self, tmp_path):
        # 2,000 worker-shaped payloads of 200 race pairs, each a distinct
        # object graph as if unpickled off the pool's result queue: only
        # the offset map may stay behind.
        template = json.dumps(payload(7, races=200))
        with ResultsStore(tmp_path / "results.jsonl") as store:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for index in range(2000):
                    store.record(f"{index:064x}", "hb+tc+detect", json.loads(template))
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(store) == 2000
            assert store.get(f"{1999:064x}", "hb+tc+detect")["race_count"] == 200
        assert grown < 2 * 1024 * 1024, f"the store grew {grown / 2**20:.1f} MB"


class TestPagedResults:
    """The digest-less ``results`` op answers in pages of at most ``RESULTS_PAGE`` cells."""

    CELLS = 2000

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        template = json.dumps(payload(7, races=200))
        store = ResultsStore(tmp_path_factory.mktemp("paged") / "results.jsonl")
        for index in range(self.CELLS):
            store.record(f"{index * 7919 % self.CELLS:064x}", "hb+tc+detect", json.loads(template))
        yield store
        store.close()

    @staticmethod
    def handler(store):
        handler = ServeHandler.__new__(ServeHandler)
        handler.server = SimpleNamespace(results=store)
        return handler

    def test_one_request_peaks_with_the_page_not_the_store(self, store):
        handler = self.handler(store)
        tracemalloc.start()
        try:
            frame = encode_message(handler._op_results({"op": "results"}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reply = json.loads(frame)
        assert reply["count"] == len(reply["results"]) == RESULTS_PAGE
        # Decoding, dumping and encoding the page peaks near 6x its size;
        # a whole-store reply of the same cells would be 20 pages.
        store_bytes = store.path.stat().st_size
        assert 15 * len(frame) < store_bytes
        assert peak < 10 * len(frame), (
            f"one page of {len(frame) / 2**20:.1f} MB peaked at {peak / 2**20:.1f} MB "
            f"(the store holds {store_bytes / 2**20:.1f} MB)"
        )

    def test_paging_returns_every_cell_exactly_once(self, store):
        handler = self.handler(store)
        keys, merged, request = [], {}, {"op": "results"}
        while True:
            reply = handler._op_results(request)
            assert reply["ok"] and 0 < reply["count"] <= RESULTS_PAGE
            keys.extend(reply["results"])
            merged.update(reply["results"])
            if reply["next"] is None:
                break
            assert reply["next"] == keys[-1]
            request = {"op": "results", "after": reply["next"]}
        assert len(keys) == len(set(keys)) == self.CELLS
        assert keys == sorted(keys) == store.keys()
        assert canonical(merged) == canonical(every_cell(store))

    def test_client_follows_the_cursor_to_the_same_dict(self, store):
        handler = self.handler(store)
        client = ServeClient.__new__(ServeClient)
        sent = []

        def request(payload):
            sent.append(dict(payload))
            return handler._op_results(payload)

        client.request = request
        assert canonical(client.results()) == canonical(every_cell(store))
        assert sent[0] == {"op": "results"}
        assert len(sent) == self.CELLS // RESULTS_PAGE
        assert all(set(message) == {"op", "after"} for message in sent[1:])
        sent.clear()
        digest = f"{5:064x}"
        assert client.results(digest) == store.for_trace(digest)
        assert sent == [{"op": "results", "digest": digest}]

    def test_a_cursor_outlives_changes_between_pages(self, tmp_path):
        cells = 2 * RESULTS_PAGE + 5
        digests = [f"{index:064x}" for index in range(1, cells + 1)]
        before, at, after = digests[RESULTS_PAGE // 2], digests[RESULTS_PAGE - 1], digests[-3]
        with ResultsStore(tmp_path / "results.jsonl") as store:
            for index, digest in enumerate(digests):
                store.record(digest, "hb+tc", payload(index, races=1))
            first, cursor = store.page()
            assert cursor == result_key(at, "hb+tc")
            store.discard(at, "hb+tc")  # the cursor's own cell
            store.discard(after, "hb+tc")
            store.record(before, "shb+tc", payload(0))  # sorts before the cursor
            store.record(at, "shb+tc", payload(0))  # right after it
            store.record(digests[-1], "shb+tc", payload(0))
            keys = list(first)
            while cursor is not None:
                page, cursor = store.page(cursor)
                keys.extend(page)
        expected = [result_key(digest, "hb+tc") for digest in digests if digest != after]
        expected.insert(RESULTS_PAGE, result_key(at, "shb+tc"))
        expected.append(result_key(digests[-1], "shb+tc"))
        assert keys == expected

    def test_a_bad_cursor_is_an_error(self, store):
        reply = self.handler(store)._op_results({"op": "results", "after": 3})
        assert not reply["ok"] and "after" in reply["error"]
