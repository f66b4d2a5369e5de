"""Differential: corpus ingest through the record caches ≡ per-event ingest.

:class:`TraceCorpus` ingests every event as cached thread and op records
(:class:`repro.serve.corpus._Ingest`).  The reference below is the
per-event ``_ingest_events`` it replaced, kept verbatim: every event is
rendered with ``std_line``, hashed, written with ``ColfWriter.write`` and
counted on its own.  For every source the two must agree on the digest,
the stored colf bytes, the index statistics and, for bad input, the
exception type and text.

Sources: STD text (the ``submit`` body), STD and gzipped STD files,
CSV text and files, colf files, in-memory :class:`Trace` objects and
plain event iterators.  Every text goes in twice more as a chunked
``submit`` body read through :class:`BodyReader`, cut into chunks at
every byte when it is short and at seeded random points, inside
multi-byte characters and between ``\\r`` and ``\\n`` when it is
not.  Inputs: 30 seeded random traces, hand-written STD texts covering
the parser's corners (comments, blank lines, CRLF, locations,
whitespace, ``T03``, fork/join/begin/end, the regex path, malformed
lines), events whose tids or targets are not plain ints and strings,
and traces with more distinct tokens than the cache bound.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import itertools
import os
import random
import threading
import time
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import pytest

from repro.serve import corpus as corpus_module
from repro.serve.corpus import CorpusEntry, CorpusError, TraceCorpus
from repro.serve.protocol import BodyReader, encode_message, write_body
from repro.trace import Trace
from repro.trace import event as ev
from repro.trace.colfmt import ColfWriter
from repro.trace.event import Event, OpKind
from repro.trace.io import (
    TraceFormatError,
    dumps_csv,
    dumps_std,
    infer_format,
    iter_csv,
    iter_std,
    iter_trace_file,
    save_trace,
    std_line,
)
from util_traces import make_random_trace

_SYNC_KINDS = (OpKind.ACQUIRE, OpKind.RELEASE, OpKind.FORK, OpKind.JOIN)


class ReferenceCorpus(TraceCorpus):
    """The corpus with its former per-event ingest, copied verbatim."""

    def ingest(self, source, name=None, tags=()):
        if isinstance(source, (str, Path)):
            default_name = Path(source).name
            events: Iterable[Event] = iter_trace_file(source, fmt=infer_format(source))
        elif isinstance(source, Trace):
            default_name = source.name or ""
            events = iter(source)
        else:
            default_name = ""
            events = source
        return self._ingest_events(
            events, name=name if name is not None else default_name, tags=tags, origin=source
        )

    def _ingest_events(
        self,
        events: Iterable[Event],
        name: str,
        tags: Sequence[str],
        origin: object = None,
    ) -> Tuple[CorpusEntry, bool]:
        hasher = hashlib.sha256()
        num_events = 0
        sync_events = 0
        threads: set = set()
        locks: set = set()
        variables: set = set()
        temp_path = self.traces_dir / (
            f".ingest-{os.getpid()}-{threading.get_ident()}-"
            f"{next(self._ingest_counter)}.tmp.colf"
        )
        try:
            with ColfWriter(temp_path) as writer:
                for event in events:
                    line = std_line(event)
                    hasher.update(line.encode("utf-8"))
                    hasher.update(b"\n")
                    writer.write(event)
                    num_events += 1
                    threads.add(event.tid)
                    kind = event.kind
                    if kind in _SYNC_KINDS:
                        sync_events += 1
                        if kind in (OpKind.ACQUIRE, OpKind.RELEASE):
                            locks.add(event.target)
                    elif kind in (OpKind.READ, OpKind.WRITE):
                        variables.add(event.target)
        except (TraceFormatError, EOFError, zlib.error, OSError) as error:
            temp_path.unlink(missing_ok=True)
            where = f" {origin}" if isinstance(origin, (str, Path)) else ""
            raise CorpusError(
                f"cannot ingest trace{where}: {type(error).__name__}: {error}"
            ) from error
        except BaseException:
            temp_path.unlink(missing_ok=True)
            raise

        digest = hasher.hexdigest()
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                temp_path.unlink(missing_ok=True)
                merged_tags = tuple(sorted(set(existing.tags) | set(tags)))
                if merged_tags != existing.tags:
                    existing = replace(existing, tags=merged_tags)
                    self._entries[digest] = existing
                    self._save_index()
                return existing, False

            entry = CorpusEntry(
                digest=digest,
                name=name or digest[:12],
                events=num_events,
                threads=len(threads),
                locks=len(locks),
                variables=len(variables),
                sync_events=sync_events,
                tags=tuple(sorted(set(tags))),
                ingested_unix=time.time(),
            )
            os.replace(temp_path, self.traces_dir / entry.filename)
            self._entries[digest] = entry
            self._save_index()
            return entry, True


def _outcome(corpus: TraceCorpus, ingest) -> Tuple[object, ...]:
    """What an ingest leaves behind: entry, stored bytes and files, or the error."""
    try:
        entry, created = ingest()
    except Exception as error:  # noqa: BLE001 - the error itself is compared
        leftovers = sorted(path.name for path in corpus.traces_dir.iterdir())
        return ("error", type(error).__name__, str(error), leftovers)
    payload = entry.as_dict()
    payload.pop("ingested_unix")
    stored = corpus.trace_path(entry.digest).read_bytes()
    files = sorted(path.name for path in corpus.traces_dir.iterdir())
    return ("ok", payload, created, stored, files)


def assert_same_ingest(tmp_path: Path, new_ingest, reference_ingest) -> Tuple[object, ...]:
    """Run both ingests into fresh corpora and require identical outcomes."""
    counter = next(_corpus_ids)
    new = TraceCorpus(tmp_path / f"new-{counter}")
    ref = ReferenceCorpus(tmp_path / f"ref-{counter}")
    got = _outcome(new, lambda: new_ingest(new))
    want = _outcome(ref, lambda: reference_ingest(ref))
    assert got == want
    return got


_corpus_ids = itertools.count()


def std_text_lines(text: str):
    """The lines a file read of ``text`` yields (universal newlines)."""
    return io.StringIO(text, newline=None)


def ingest_text(corpus: TraceCorpus, text: str, fmt: str = "std", name: Optional[str] = None):
    """Ingest ``text`` as the bytes a client sends for it."""
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return corpus.ingest_stream(data, fmt=fmt, name=name)


#: Texts of at most this many bytes are sent cut at every byte.
SHORT_BODY_BYTES = 64

_NEXT_FRAME = encode_message({"op": "ping"})


def body_cuts(data: bytes) -> List[List[int]]:
    """Where to cut ``data`` into body chunks, one list of offsets per body.

    Each body is one whole chunk, then: every single cut of a short
    text; seeded random cuts of a longer one, plus a cut inside each of
    its first multi-byte characters and between each of its first
    ``\\r\\n`` pairs.
    """
    cuts: List[List[int]] = [[]]
    if len(data) <= SHORT_BODY_BYTES:
        return cuts + [[offset] for offset in range(1, len(data))]
    rng = random.Random(zlib.crc32(data))
    cuts += [sorted(rng.sample(range(1, len(data)), count)) for count in (1, 7, 64)]
    # A continuation byte (0b10xxxxxx) is never the first of a character.
    inside = [offset for offset in range(1, len(data)) if data[offset] & 0xC0 == 0x80]
    crlf = [offset + 1 for offset in range(len(data) - 1) if data[offset : offset + 2] == b"\r\n"]
    return cuts + [sorted(inside[:16] + crlf[:16])]


def ingest_body(corpus: TraceCorpus, data: bytes, cuts: Sequence[int], **options):
    """Ingest ``data`` as a chunked ``submit`` body cut at ``cuts``.

    The body is read the way the server reads it: through a
    :class:`BodyReader`, drained to its terminator after the ingest,
    with the next frame left unread.
    """
    stream = io.BytesIO()
    edges = [0, *cuts, len(data)]
    write_body(stream, [data[start:end] for start, end in zip(edges, edges[1:])])
    stream.write(_NEXT_FRAME)
    stream.seek(0)
    with BodyReader(stream) as body:
        try:
            return corpus.ingest_stream(body, **options)
        finally:
            body.drain()
            assert stream.read() == _NEXT_FRAME


def check_bodies(tmp_path: Path, text: str, want: Tuple[object, ...], **options) -> None:
    """``text`` as chunked bodies, each cut its own way, must give ``want``."""
    data = text.encode("utf-8", "surrogatepass")
    for cuts in body_cuts(data):
        corpus = TraceCorpus(tmp_path / f"body-{next(_corpus_ids)}")
        got = _outcome(corpus, lambda: ingest_body(corpus, data, cuts, **options))
        assert got == want, f"body cut at {cuts}"


def check_std_text(tmp_path: Path, text: str, name: Optional[str] = None) -> Tuple[object, ...]:
    """STD text, as submitted and as a file, against the reference."""
    outcome = assert_same_ingest(
        tmp_path,
        lambda corpus: ingest_text(corpus, text, name=name),
        lambda corpus: corpus.ingest(iter_std(std_text_lines(text)), name=name),
    )
    check_bodies(tmp_path, text, outcome, name=name)
    path = tmp_path / f"text-{next(_corpus_ids)}.std"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_ingest(
        tmp_path, lambda corpus: corpus.ingest(path), lambda corpus: corpus.ingest(path)
    )
    return outcome


def check_events(tmp_path: Path, events: Sequence[Event]) -> Tuple[object, ...]:
    """An in-memory trace and a plain event iterator against the reference."""
    trace = Trace(list(events), name="events")
    assert_same_ingest(
        tmp_path, lambda corpus: corpus.ingest(trace), lambda corpus: corpus.ingest(trace)
    )
    return assert_same_ingest(
        tmp_path,
        lambda corpus: corpus.ingest(event for event in events),
        lambda corpus: corpus.ingest(event for event in events),
    )


def check_every_source(tmp_path: Path, trace: Trace) -> None:
    """One trace through every source; all of them give one digest."""
    digests = set()
    std_text = dumps_std(trace)
    csv_text = dumps_csv(trace)
    digests.add(check_std_text(tmp_path, std_text)[1]["digest"])
    csv_outcome = assert_same_ingest(
        tmp_path,
        lambda corpus: ingest_text(corpus, csv_text, fmt="csv"),
        lambda corpus: corpus.ingest(iter_csv(std_text_lines(csv_text))),
    )
    check_bodies(tmp_path, csv_text, csv_outcome, fmt="csv")
    digests.add(csv_outcome[1]["digest"])
    for suffix, fmt in ((".std.gz", "std"), (".csv", "csv"), (".csv.gz", "csv"), (".colf", "colf")):
        path = tmp_path / f"{trace.name}-{next(_corpus_ids)}{suffix}"
        save_trace(trace, path, fmt=fmt)
        digests.add(
            assert_same_ingest(
                tmp_path, lambda corpus: corpus.ingest(path), lambda corpus: corpus.ingest(path)
            )[1]["digest"]
        )
    digests.add(check_events(tmp_path, list(trace))[1]["digest"])
    assert len(digests) == 1


# -- seeded random traces -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_random_trace_every_source(tmp_path, seed):
    trace = make_random_trace(
        seed,
        num_threads=2 + seed % 7,
        num_locks=1 + seed % 4,
        num_variables=1 + seed % 9,
        num_events=50 + 37 * seed,
        include_fork_join=seed % 3 == 0,
    )
    check_every_source(tmp_path, trace)


@pytest.mark.parametrize("seed", range(0, 30, 7))
def test_random_trace_with_tiny_cache_bound(tmp_path, monkeypatch, seed):
    # A bound of 2 clears the caches every few events, so records are
    # rebuilt over and over; nothing observable may change.
    monkeypatch.setattr(corpus_module, "RECORD_CACHE_LIMIT", 2)
    check_every_source(tmp_path, make_random_trace(seed, num_events=300, include_fork_join=True))


# -- hand-written STD text ------------------------------------------------------------------

HAND_WRITTEN = {
    "comments-and-blanks": "# header\n\nT1|w(x)\n   \n# T1|bogus\nT2|r(x)\n\n",
    "crlf": "T1|acq(l)|0\r\nT1|w(x)|1\r\nT1|rel(l)|2\r\nT2|r(x)|3\r\n",
    "bare-cr": "T1|w(x)\rT2|w(x)\rT2|r(x)",
    "locations": "T1|w(x)|a.py:10\nT1|w(x)|a.py:11\nT2|r(x)|b.py:3\nT2|r(x)\n",
    "whitespace": "  T1 | w( x ) | 7 \nT1|w(x)|8\n\tT1\t|\tw(x)\t\nT2 |r ( x )|9\n",
    "leading-zero-tid": "T03|w(x)\nT3|w(x)\nT003|r(x)|5\n",
    "fork-join-begin-end": (
        "T1|begin\nT1|fork(T2)\nT2|begin()\nT2|w(x)\nT2|end\nT1|join(T2)\nT1|fork(3)\n"
        "T3|w(x)\nT1|join(t3)\nT1|end\n"
    ),
    "int-like-targets": "T1|w(5)\nT1|w(05)\nT2|acq(7)\nT2|rel(7)\nT2|r(5)\n",
    "regex-path": "T1|w(x|y)\nT1|w(x|z)\nT2|r(x|y)|loc\nT1 |w(x)\nT1|w(x)|a|b\n",
    "unicode-and-separators": "T1|w(a\x0bb)\nT1|w(x\x85y)\nT2|r( z)|0\nT2|w(é)\n",
    # Two-, three- and four-byte characters and CRLF in a text long
    # enough to be cut at random, inside characters and inside CRLFs.
    "wide-characters": "T1|w(é)\r\nT2|r(€)\r\nT1|w(中文)\nT2|acq(𝄞)\r\nT2|rel(𝄞)\r" * 6,
    "empty": "",
    "only-comments": "# nothing\n\n# here\n",
    "no-trailing-newline": "T1|w(x)\nT2|w(x)",
}

MALFORMED = {
    "bad-thread": "T1|w(x)\nX1|w(x)\n",
    "unknown-op": "T1|w(x)\nT1|bogus(x)\n",
    "missing-target": "T1|w()\n",
    "bad-fork-target": "T1|fork(Tx)\n",
    "multi-token-location": "T1|w(x)\nT1|w(x)|a b\n",
    "empty-location": "T1|w(x)|\n",
    "one-field": "T1\n",
    "garbage-after-good-lines": "T1|w(x)\n" * 5000 + "garbage\n",
    "crlf-malformed": "T1|w(x)\r\nT1|nope\r\n",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_std(tmp_path, name):
    outcome = check_std_text(tmp_path, HAND_WRITTEN[name], name=name)
    assert outcome[0] == "ok"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_std(tmp_path, name):
    outcome = check_std_text(tmp_path, MALFORMED[name])
    assert outcome[0] == "error"
    assert outcome[1] == "CorpusError"
    assert outcome[3] == [], "a failed ingest must leave no file behind"


def test_truncated_gzip_reports_the_first_error_in_line_order(tmp_path):
    # A malformed early line and a torn gzip tail: the line error comes
    # first, as it did when every line was parsed as it was read.
    text = "T1|w(x)\nT1|nope\n" + "".join(f"T{i % 5}|w(v{i})|{i}\n" for i in range(20000))
    path = tmp_path / "torn.std.gz"
    blob = gzip.compress(text.encode("utf-8"))
    path.write_bytes(blob[: len(blob) // 2])
    outcome = assert_same_ingest(
        tmp_path, lambda corpus: corpus.ingest(path), lambda corpus: corpus.ingest(path)
    )
    assert outcome[0] == "error" and "line 2" in outcome[2]
    clean = tmp_path / "torn-clean.std.gz"
    clean.write_bytes(gzip.compress(text.replace("T1|nope\n", "").encode("utf-8"))[:4000])
    outcome = assert_same_ingest(
        tmp_path, lambda corpus: corpus.ingest(clean), lambda corpus: corpus.ingest(clean)
    )
    assert outcome[0] == "error" and "EOFError" in outcome[2]


def test_missing_file(tmp_path):
    path = tmp_path / "absent.std"
    outcome = assert_same_ingest(
        tmp_path, lambda corpus: corpus.ingest(path), lambda corpus: corpus.ingest(path)
    )
    assert outcome[:2] == ("error", "CorpusError")


# -- events whose values are not plain ------------------------------------------------------


def test_events_with_values_that_compare_equal_but_render_differently(tmp_path):
    # 1, 1.0 and True are equal dict keys but render "1", "1.0" and
    # "True"; such events must never share a record.
    events = [
        Event(0, 1, OpKind.WRITE, 1),
        Event(1, 1, OpKind.WRITE, 1.0),
        Event(2, 1, OpKind.WRITE, True),
        Event(3, 1, OpKind.WRITE, "1"),
        Event(4, True, OpKind.WRITE, 1),
        Event(5, 1, OpKind.READ, 1),
        Event(6, 2, OpKind.ACQUIRE, 0.0),
        Event(7, 2, OpKind.RELEASE, -0.0),
        Event(8, 2, OpKind.ACQUIRE, 0),
        Event(9, 2, OpKind.RELEASE, 0),
        Event(10, 1, OpKind.WRITE, 1),
    ]
    outcome = check_events(tmp_path, events)
    assert outcome[0] == "ok"


def test_events_keep_their_own_eids_in_the_digest(tmp_path):
    # The digest renders each event's own eid, not its position.
    events = [ev.write(1, "x", eid=99), ev.read(2, "x", eid=-5), ev.write(1, "x", eid=7)]
    outcome = check_events(tmp_path, events)
    expected = hashlib.sha256(
        "".join(std_line(event) + "\n" for event in events).encode("utf-8")
    ).hexdigest()
    assert outcome[1]["digest"] == expected


def test_unencodable_target_raises_like_the_reference(tmp_path):
    # A lone surrogate (JSON can carry one into submitted text) fails at
    # the event that names it, before a later malformed line is reached.
    events = [ev.write(1, "x"), ev.write(1, "\ud800"), ev.write(2, "x")]
    outcome = check_events(tmp_path, events)
    assert outcome[:2] == ("error", "UnicodeEncodeError")
    text = "T1|w(x)\nT1|w(\ud800)\nT1|nope\n"
    outcome = assert_same_ingest(
        tmp_path,
        lambda corpus: ingest_text(corpus, text),
        lambda corpus: corpus.ingest(iter_std(std_text_lines(text))),
    )
    assert outcome[:2] == ("error", "UnicodeEncodeError")
    check_bodies(tmp_path, text, outcome)


# -- more distinct tokens than the cache bound ------------------------------------------------


def test_more_distinct_tokens_than_the_cache_bound(tmp_path):
    count = corpus_module.RECORD_CACHE_LIMIT + 1000
    # Every line names a new variable, so the op cache overflows and is
    # cleared; then early lines come back and their records are rebuilt.
    lines = [f"T{i % 37}|w(v{i})|{i}" for i in range(count)]
    lines += [f"T{i % 37}|w(v{i})" for i in range(0, count, 16)]
    text = "\n".join(lines) + "\n"
    outcome = assert_same_ingest(
        tmp_path,
        lambda corpus: ingest_text(corpus, text),
        lambda corpus: corpus.ingest(iter_std(std_text_lines(text))),
    )
    assert outcome[0] == "ok" and outcome[1]["variables"] == count
    check_bodies(tmp_path, text, outcome)
    events = list(iter_std(text.splitlines()))
    assert_same_ingest(
        tmp_path,
        lambda corpus: corpus.ingest(iter(events)),
        lambda corpus: corpus.ingest(iter(events)),
    )
