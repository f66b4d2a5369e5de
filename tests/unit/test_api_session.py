"""Unit tests for :class:`repro.api.Session` and the event sources.

The contract pinned down here is the tentpole of the session API: a
session with *k* specs performs exactly **one** walk over its event
source (asserted via the sources' ``events_emitted`` counters), and for
every order × clock combination its races and timestamps equal the
legacy one-analysis-per-run results.
"""

import gc
import gzip
import os

import pytest

from repro.api import (
    AnalysisSpec,
    CaptureSource,
    ColfSource,
    FileSource,
    GeneratorSource,
    Session,
    TraceSource,
    as_event_source,
    run_specs,
)
from repro.api.registry import CLOCKS, ORDERS
from repro.capture.recorder import TraceRecorder
from repro.gen import RandomTraceConfig, get_profile
from repro.trace import OpKind, Trace, TraceBuilder, dumps_csv, dumps_std, load_trace, save_trace
from repro.trace import event as ev
from util_traces import make_random_trace

ALL_COMBOS = [f"{order}+{clock}" for order in ("hb", "shb", "maz") for clock in ("tc", "vc")]


@pytest.fixture
def small_trace() -> Trace:
    builder = TraceBuilder(name="small")
    builder.write(1, "x")
    builder.acquire(1, "l").write(1, "d").release(1, "l")
    builder.acquire(2, "l").read(2, "d").release(2, "l")
    builder.write(2, "x")
    builder.read(3, "d")
    return builder.build()


def race_set(result):
    return {
        (r.variable, r.prior_tid, r.prior_local_time, r.event_eid, r.event_tid)
        for r in result.detection.races
    }


class TestSessionEqualsIndividualRuns:
    """Races and timestamps match the legacy per-run path, for every combo."""

    @pytest.mark.parametrize("trace_seed", [0, 7, 42])
    def test_all_order_clock_combos_in_one_walk(self, trace_seed):
        trace = make_random_trace(trace_seed, num_events=150)
        specs = [f"{combo}+detect+ts" for combo in ALL_COMBOS]
        session_result = Session(specs).run(trace)
        assert len(session_result) == len(specs)
        for combo in ALL_COMBOS:
            order, clock = combo.split("+")
            legacy = ORDERS.get(order)(
                CLOCKS.get(clock), detect=True, capture_timestamps=True
            ).run(trace)
            via_session = session_result[f"{combo}+detect+ts"]
            assert via_session.timestamps == legacy.timestamps, combo
            assert race_set(via_session) == race_set(legacy), combo
            assert via_session.detection.race_count == legacy.detection.race_count, combo
            assert via_session.num_events == legacy.num_events == len(trace)
            assert via_session.num_threads == legacy.num_threads

    def test_work_counters_match_individual_runs(self, small_trace):
        session_result = Session(["hb+tc+work", "hb+vc+work"]).run(small_trace)
        for clock in ("tc", "vc"):
            legacy = ORDERS.get("HB")(CLOCKS.get(clock), count_work=True).run(small_trace)
            via_session = session_result[f"hb+{clock}+work"]
            assert via_session.work.entries_processed == legacy.work.entries_processed
            assert via_session.work.entries_updated == legacy.work.entries_updated


class TestSinglePass:
    """k specs, one event walk — the event-feed counters prove it."""

    def test_trace_source_is_walked_exactly_once(self, small_trace):
        source = TraceSource(small_trace)
        session = Session([f"{combo}+detect" for combo in ALL_COMBOS])
        result = session.run(source)
        assert source.events_emitted == len(small_trace)  # not k * len(trace)
        assert session.events_fed == len(small_trace)
        assert result.num_events == len(small_trace)
        for _, spec_result in result:
            assert spec_result.num_events == len(small_trace)

    def test_file_source_is_read_exactly_once(self, small_trace, tmp_path):
        path = tmp_path / "trace.std"
        save_trace(small_trace, str(path))
        source = FileSource(str(path))
        Session(["hb+tc", "hb+vc", "shb+tc"]).run(source)
        assert source.events_emitted == len(small_trace)

    def test_duplicate_specs_are_collapsed(self, small_trace):
        session = Session(["hb+tc+detect", "HB+TC+detect", AnalysisSpec(detect=True)])
        assert len(session.specs) == 1
        result = session.run(small_trace)
        assert len(result) == 1

    def test_empty_spec_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Session([])

    def test_feed_before_begin_is_an_error(self):
        session = Session(["hb+tc"])
        with pytest.raises(RuntimeError):
            session.feed(None)
        with pytest.raises(RuntimeError):
            session.finish()


class TestSessionResult:
    def test_indexing_accepts_specs_and_strings(self, small_trace):
        result = Session(["shb+vc+detect"]).run(small_trace)
        by_string = result["shb+vc+detect"]
        by_spec = result[AnalysisSpec(order="SHB", clock="VC", detect=True)]
        assert by_string is by_spec is result.primary
        assert "shb+vc+detect" in result and "hb+tc" not in result

    def test_elapsed_times_are_positive_and_consistent(self, small_trace):
        result = Session(["hb+tc", "hb+vc"]).run(small_trace)
        per_spec = sum(r.elapsed_ns for _, r in result)
        assert all(r.elapsed_ns > 0 for _, r in result)
        assert result.elapsed_ns >= per_spec  # walk time includes iteration overhead
        assert result.elapsed_seconds == result.elapsed_ns / 1e9

    def test_as_dict_is_json_ready(self, small_trace):
        import json

        result = Session(["hb+tc+detect+work"]).run(small_trace)
        payload = json.loads(result.to_json())
        spec_payload = payload["specs"]["hb+tc+detect+work"]
        assert payload["events"] == len(small_trace)
        assert spec_payload["detection"]["race_count"] >= 1
        assert spec_payload["work"]["entries_processed"] > 0
        assert spec_payload["elapsed_ns"] > 0

    def test_run_specs_convenience(self, small_trace):
        result = run_specs(small_trace, "hb+tc+detect", "hb+vc+detect")
        counts = {key: r.detection.race_count for key, r in result}
        assert len(set(counts.values())) == 1


class TestFileSource:
    @pytest.mark.parametrize("suffix,dump", [("std", dumps_std), ("csv", dumps_csv)])
    @pytest.mark.parametrize("compress", [False, True])
    def test_streams_both_formats_equal_to_eager_load(
        self, small_trace, tmp_path, suffix, dump, compress
    ):
        name = f"trace.{suffix}" + (".gz" if compress else "")
        path = tmp_path / name
        text = dump(small_trace)
        if compress:
            with gzip.open(path, "wt", encoding="utf-8") as handle:
                handle.write(text)
        else:
            path.write_text(text)
        source = FileSource(str(path))
        streamed = list(source.events())
        eager = load_trace(str(path), fmt=suffix)
        assert streamed == list(eager.events)

    def test_session_over_file_equals_session_over_trace(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv.gz"
        save_trace(small_trace, str(path), fmt="csv")
        from_file = Session(["shb+tc+detect"]).run(FileSource(str(path)))
        from_trace = Session(["shb+tc+detect"]).run(small_trace)
        assert race_set(from_file.primary) == race_set(from_trace.primary)

    def test_threads_unknown_upfront(self, tmp_path):
        path = tmp_path / "trace.std"
        path.write_text("T1|w(x)|0\n")
        assert FileSource(str(path)).threads() is None


class TestGeneratorSource:
    def test_profile_and_config_sources(self):
        profile = get_profile("account-like")
        source = profile.source()
        assert isinstance(source, GeneratorSource)
        assert source.name == "account-like"
        result = Session(["hb+tc"]).run(source)
        assert result.num_events == source.events_emitted == len(profile.generate())

        config = RandomTraceConfig(name="rnd", num_threads=3, num_events=40, seed=1)
        result = Session(["hb+tc"]).run(GeneratorSource(config))
        assert result.name == "rnd" and result.num_events > 0

    def test_callable_source_generates_once(self):
        calls = []

        def factory():
            calls.append(1)
            return TraceBuilder(name="made").write(1, "x").write(2, "x").build()

        source = GeneratorSource(factory)
        Session(["hb+tc+detect"]).run(source)
        assert calls == [1]  # threads() + events() share one generation

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            GeneratorSource(123)


class TestCaptureSource:
    """Capture-backed sessions: live (attach) and post-hoc (replay)."""

    def _record_racy_program(self, recorder: TraceRecorder) -> None:
        t0 = recorder.allocate_tid()
        t1 = recorder.allocate_tid()
        recorder.record(OpKind.WRITE, "x", tid=t0, location="prog.py:1")
        recorder.record(OpKind.ACQUIRE, "l", tid=t0)
        recorder.record(OpKind.RELEASE, "l", tid=t0)
        recorder.record(OpKind.ACQUIRE, "m", tid=t1)
        recorder.record(OpKind.RELEASE, "m", tid=t1)
        recorder.record(OpKind.WRITE, "x", tid=t1, location="prog.py:9")

    def test_live_session_over_capture_source(self):
        recorder = TraceRecorder(name="live")
        source = CaptureSource(recorder)
        races = []
        session = Session(
            ["shb+tc+detect", "shb+vc+detect"], on_race=races.append, locate=source.locate
        )
        source.attach(session)
        self._record_racy_program(recorder)
        result = source.finish()
        assert source.events_emitted == 6
        assert result.num_events == 6
        counts = {key: r.detection.race_count for key, r in result}
        assert counts["shb+tc+detect"] == counts["shb+vc+detect"] == 1
        assert len(races) == 1  # only the first spec narrates
        assert races[0].location == "prog.py:9"

    def test_live_equals_post_hoc_replay(self):
        recorder = TraceRecorder(name="cmp")
        source = CaptureSource(recorder)
        session = Session(["shb+tc+detect"], locate=source.locate)
        source.attach(session)
        self._record_racy_program(recorder)
        live = source.finish()

        replay_source = CaptureSource(recorder)
        replay = Session(["shb+tc+detect"], locate=replay_source.locate).run(replay_source)
        assert race_set(live.primary) == race_set(replay.primary)
        assert replay.primary.detection.races[0].location == "prog.py:9"

    def test_double_attach_and_finish_without_attach_raise(self):
        recorder = TraceRecorder(name="guard")
        source = CaptureSource(recorder)
        with pytest.raises(RuntimeError, match="no session attached"):
            source.finish()
        source.attach(Session(["hb+tc"]))
        with pytest.raises(RuntimeError, match="already attached"):
            source.attach(Session(["hb+tc"]))


class TestAsEventSource:
    def test_coercions(self, small_trace, tmp_path):
        path = tmp_path / "t.std"
        save_trace(small_trace, str(path))
        assert isinstance(as_event_source(small_trace), TraceSource)
        assert isinstance(as_event_source(str(path)), FileSource)
        assert isinstance(as_event_source(path), FileSource)
        assert isinstance(as_event_source(TraceRecorder()), CaptureSource)
        assert isinstance(as_event_source(get_profile("account-like")), GeneratorSource)
        existing = TraceSource(small_trace)
        assert as_event_source(existing) is existing
        with pytest.raises(TypeError):
            as_event_source(3.14)


class TestRunSourceLifetime:
    """``Session.run`` closes a source it built itself, never the caller's."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_colf_path_runs_leave_no_open_files(self, small_trace, tmp_path):
        path = tmp_path / "t.colf"
        save_trace(small_trace, path, fmt="colf")
        # With the cyclic collector off, the file must be freed by the
        # walk's explicit close (which also drops the reader's segments,
        # so the closed reader is freed by reference counting).
        gc.collect()
        gc.disable()
        try:
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(20):
                Session(["hb+tc"]).run(str(path))
            after = len(os.listdir("/proc/self/fd"))
        finally:
            gc.enable()
        assert after == before

    def test_a_source_the_caller_passed_stays_open(self, small_trace, tmp_path):
        path = tmp_path / "t.colf"
        save_trace(small_trace, path, fmt="colf")
        with ColfSource(path) as source:
            Session(["hb+tc"]).run(source)
            assert list(source.events()) == list(small_trace)


class TestSessionValidation:
    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"batch_size": -5}])
    def test_rejects_bad_batch_size(self, kwargs):
        session = Session(["hb+tc"])
        with pytest.raises(ValueError, match="batch_size"):
            session.run(Trace([ev.write(1, "x")]), **kwargs)

    def test_session_reusable_after_rejection(self):
        """Validation fires before begin(): no half-built walk state."""
        session = Session(["hb+tc+detect"])
        events = [ev.write(1, "x"), ev.write(2, "x")]
        with pytest.raises(ValueError):
            session.run(Trace(events), batch_size=0)
        assert session.analyses == {} or all(
            analysis is not None for analysis in session.analyses.values()
        )
        result = session.run(Trace(events))
        assert result.num_events == 2
        assert result.primary.detection.race_count == 1
