"""Unit tests for the sharded job queue, scheduler and worker pool."""

import time

import pytest

from repro import Session, TraceBuilder
from repro.trace.io import save_trace
from repro.serve.corpus import TraceCorpus
from repro.serve.jobs import AnalysisJob, JobQueue, JobStatus, Scheduler, job_id_of, shard_of
from repro.serve.pool import WorkerPool, WorkerTask, execute_task, run_batch
from repro.serve.results import ResultsStore


def make_job(digest: str, spec: str = "hb+tc") -> AnalysisJob:
    return AnalysisJob(job_id=job_id_of(digest, spec), digest=digest, spec=spec, trace_name="t")


@pytest.fixture
def racy_trace():
    # The x-writes race under every order (no sync between them); the
    # y-accesses are lock-protected and race-free.
    builder = TraceBuilder(name="racy")
    builder.write(1, "x").acquire(1, "l").write(1, "y").release(1, "l")
    builder.write(2, "x").acquire(2, "l").read(2, "y").release(2, "l")
    return builder.build()


@pytest.fixture
def trace_file(tmp_path, racy_trace):
    path = tmp_path / "racy.std.gz"
    save_trace(racy_trace, path, fmt="std")
    return path


class TestJobQueue:
    def test_cells_of_one_trace_share_a_shard(self):
        queue = JobQueue(num_shards=4)
        digest = "ab" * 32
        shards = {queue.push(make_job(digest, spec)) for spec in ("hb+tc", "hb+vc", "shb+tc")}
        assert shards == {shard_of(digest, 4)}
        assert len(queue) == 3

    def test_pop_round_robins_across_shards(self):
        queue = JobQueue(num_shards=4)
        # Two traces in different shards, several cells each: pops must
        # interleave the traces instead of draining one first.
        first, second = "00" * 32, "01" * 32
        assert shard_of(first, 4) != shard_of(second, 4)
        for spec in ("hb+tc", "hb+vc"):
            queue.push(make_job(first, spec))
            queue.push(make_job(second, spec))
        popped = [queue.pop().digest for _ in range(4)]
        assert popped[:2] != [first, first] and popped[:2] != [second, second]
        assert queue.pop() is None

    def test_depths_reports_per_shard_backlog(self):
        queue = JobQueue(num_shards=2)
        digest = "ff" * 32
        queue.push(make_job(digest))
        depths = queue.depths()
        assert sum(depths) == 1 and len(depths) == 2

    def test_shard_of_is_stable(self):
        digest = "abcdef00" + "00" * 28
        assert shard_of(digest, 8) == shard_of(digest, 8)
        assert 0 <= shard_of(digest, 8) < 8

    def test_queue_requires_a_shard(self):
        with pytest.raises(ValueError):
            JobQueue(num_shards=0)


EXECUTE_SPECS = [
    f"{order}+{clock}+detect" for order in ("hb", "shb", "maz") for clock in ("tc", "vc")
] + ["hb+vc+work"]


def payload_fields(result):
    """The analysis fields of an ``execute_task`` payload, from an in-process result."""
    fields = {"events": result.num_events}
    if result.detection is not None:
        fields["race_count"] = result.detection.race_count
        fields["races"] = sorted(race.pair() for race in result.detection.races)
        fields["racy_variables"] = sorted(str(v) for v in result.detection.racy_variables)
    if result.work is not None:
        fields["work"] = {
            "entries_processed": result.work.entries_processed,
            "entries_updated": result.work.entries_updated,
            "joins": result.work.joins,
            "copies": result.work.copies,
        }
    return fields


class TestExecuteTask:
    @pytest.mark.parametrize("fmt", ["std", "colf"])
    @pytest.mark.parametrize("spec", EXECUTE_SPECS)
    def test_in_process_execution_matches_session(self, tmp_path, racy_trace, fmt, spec):
        path = tmp_path / f"racy.{fmt}"
        save_trace(racy_trace, path, fmt=fmt)
        task = WorkerTask(
            task_id="t", trace_path=str(path), spec=spec, fmt=fmt, trace_name="racy"
        )
        payload = execute_task(task)
        expected = payload_fields(Session([spec]).run(str(path))[spec])
        assert expected["events"] == len(racy_trace)
        assert {key: payload.get(key) for key in expected} == expected

    def test_spec_is_canonicalized(self, trace_file):
        payload = execute_task(
            WorkerTask(task_id="t", trace_path=str(trace_file), spec="TREE+HB+races")
        )
        assert payload["spec"] == "hb+tc+detect"

    def test_work_payload_included_when_requested(self, trace_file):
        payload = execute_task(
            WorkerTask(task_id="t", trace_path=str(trace_file), spec="hb+tc+work")
        )
        assert payload["work"]["entries_processed"] > 0


class TestWorkerPool:
    def test_batch_results_match_direct_sessions(self, trace_file, racy_trace):
        specs = ["hb+tc+detect", "shb+vc+detect"]
        tasks = [
            WorkerTask(task_id=spec, trace_path=str(trace_file), spec=spec) for spec in specs
        ]
        results = run_batch(tasks, workers=2, timeout=60)
        for spec in specs:
            payload, error, attempts = results[spec]
            assert error is None and attempts == 1
            direct = Session([spec]).run(racy_trace)[spec]
            assert payload["race_count"] == direct.detection.race_count
            assert payload["races"] == sorted(race.pair() for race in direct.detection.races)

    def test_crash_is_isolated_and_retried_once(self, trace_file):
        pool = WorkerPool(workers=2).start()
        try:
            results = pool.run_batch(
                [
                    WorkerTask(task_id="ok", trace_path=str(trace_file), spec="hb+tc+detect"),
                    WorkerTask(
                        task_id="boom", trace_path=str(trace_file), spec="hb+tc", fault="exit"
                    ),
                ],
                timeout=60,
            )
            payload, error, attempts = results["boom"]
            assert payload is None and "crashed" in error and attempts == 2
            payload, error, _ = results["ok"]
            assert error is None and payload["race_count"] == 1
            # the fleet healed itself after two crashes
            assert pool.alive_workers == 2
        finally:
            assert pool.close(timeout=10)

    def test_exceptions_fail_fast_without_retry(self, tmp_path):
        results = run_batch(
            [WorkerTask(task_id="gone", trace_path=str(tmp_path / "nope.std"), spec="hb+tc")],
            workers=1,
            timeout=60,
        )
        payload, error, attempts = results["gone"]
        assert payload is None and "FileNotFoundError" in error and attempts == 1

    def test_pool_restarts_after_close(self, trace_file):
        pool = WorkerPool(workers=1)
        task = WorkerTask(task_id="first", trace_path=str(trace_file), spec="hb+tc+detect")
        pool.start()
        try:
            assert pool.run_batch([task], timeout=60)["first"][0] is not None
            assert pool.close(timeout=10)
            pool.start()  # a closed pool must come back cleanly
            again = WorkerTask(task_id="second", trace_path=str(trace_file), spec="hb+tc+detect")
            payload, error, _ = pool.run_batch([again], timeout=60)["second"]
            assert error is None and payload["race_count"] == 1
        finally:
            pool.close(timeout=10)

    def test_pool_requires_start_and_unique_ids(self, trace_file):
        pool = WorkerPool(workers=1)
        task = WorkerTask(task_id="t", trace_path=str(trace_file), spec="hb+tc")
        with pytest.raises(RuntimeError, match="not started"):
            pool.submit(task)
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


class TestPoolCounters:
    """The supervision tallies behind ``repro serve status`` — always on,
    registry or not (the bugfix: retries/crashes/timeouts used to be
    swallowed by the retry machinery and never surfaced)."""

    def test_clean_batch_counts_jobs_done(self, trace_file):
        pool = WorkerPool(workers=2).start()
        try:
            pool.run_batch(
                [
                    WorkerTask(task_id=spec, trace_path=str(trace_file), spec=spec)
                    for spec in ("hb+tc", "hb+vc", "shb+tc")
                ],
                timeout=60,
            )
            counters = pool.counters()
            assert counters["jobs_done"] == 3
            assert counters["crashes"] == 0 and counters["retries"] == 0
            assert counters["timeouts"] == 0 and counters["jobs_failed"] == 0
            stats = pool.worker_stats()
            assert sum(row["jobs_done"] for row in stats) == 3
            assert all(row["alive"] for row in stats)
            assert all(row["current_task"] is None for row in stats)
        finally:
            assert pool.close(timeout=10)

    def test_crash_retry_and_terminal_failure_are_counted(self, trace_file):
        pool = WorkerPool(workers=2).start()
        try:
            pool.run_batch(
                [
                    WorkerTask(task_id="ok", trace_path=str(trace_file), spec="hb+tc"),
                    WorkerTask(
                        task_id="boom", trace_path=str(trace_file), spec="hb+tc", fault="exit"
                    ),
                ],
                timeout=60,
            )
            counters = pool.counters()
            # fault="exit" crashes on both attempts: retried once, then
            # failed terminally.  The clean task completes normally.
            assert counters["jobs_done"] == 1
            assert counters["crashes"] == 2
            assert counters["retries"] == 1
            assert counters["jobs_failed"] == 1
        finally:
            assert pool.close(timeout=10)

    def test_deterministic_exception_counts_failed_without_retry(self, tmp_path):
        pool = WorkerPool(workers=1).start()
        try:
            pool.run_batch(
                [WorkerTask(task_id="gone", trace_path=str(tmp_path / "nope.std"), spec="hb+tc")],
                timeout=60,
            )
            counters = pool.counters()
            assert counters["jobs_failed"] == 1
            assert counters["retries"] == 0 and counters["crashes"] == 0
        finally:
            assert pool.close(timeout=10)

    def test_status_snapshot_carries_pool_counters(self, tmp_path, racy_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(racy_trace)
        scheduler = Scheduler(corpus, ResultsStore(), workers=1).start()
        try:
            scheduler.submit(entry.digest, ["hb+tc"])
            assert scheduler.wait_idle(timeout=60)
            snapshot = scheduler.status_snapshot()
            assert snapshot["pool"]["jobs_done"] == 1
            assert set(snapshot["pool"]) == {
                "jobs_done", "jobs_failed", "crashes", "timeouts", "retries",
                "callback_errors",
            }
        finally:
            scheduler.close()


class TestScheduler:
    def test_submit_runs_cells_and_folds_results(self, tmp_path, racy_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(racy_trace)
        results = ResultsStore(tmp_path / "results.json")
        scheduler = Scheduler(corpus, results, workers=2).start()
        try:
            queued, cached, _ = scheduler.submit(entry.digest, ["hb+tc+detect", "shb+vc+detect"])
            assert len(queued) == 2 and cached == []
            assert scheduler.wait_idle(timeout=60)
            counts = scheduler.counts()
            assert counts["done"] == 2 and counts["failed"] == 0
            direct = Session(["hb+tc+detect"]).run(racy_trace)["hb+tc+detect"]
            payload = results.get(entry.digest, "hb+tc+detect")
            assert payload["race_count"] == direct.detection.race_count
        finally:
            scheduler.close()

    def test_resubmission_is_idempotent(self, tmp_path, racy_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(racy_trace)
        results = ResultsStore(tmp_path / "results.json")
        scheduler = Scheduler(corpus, results, workers=1).start()
        try:
            scheduler.submit(entry.digest, ["hb+tc+detect"])
            assert scheduler.wait_idle(timeout=60)
            queued, cached, _ = scheduler.submit(entry.digest, ["hb+tc+detect"])
            assert queued == [] and cached == [job_id_of(entry.digest, "hb+tc+detect")]
        finally:
            scheduler.close()

    def test_specs_are_canonicalized_on_submit(self, tmp_path, racy_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(racy_trace)
        results = ResultsStore()
        scheduler = Scheduler(corpus, results, workers=1).start()
        try:
            scheduler.submit(entry.digest, ["TREE+HB+races"])
            assert scheduler.wait_idle(timeout=60)
            assert results.has(entry.digest, "hb+tc+detect")
        finally:
            scheduler.close()

    def test_status_snapshot_filters_by_job_ids(self, tmp_path, racy_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(racy_trace)
        scheduler = Scheduler(corpus, ResultsStore(), workers=1).start()
        try:
            queued, _, _ = scheduler.submit(entry.digest, ["hb+tc", "hb+vc"])
            assert scheduler.wait_idle(timeout=60)
            snapshot = scheduler.status_snapshot(job_ids=[queued[0], "nope:missing"])
            rows = snapshot["job_list"]
            assert [row["job_id"] for row in rows] == [queued[0]]  # unknown ids drop out
        finally:
            scheduler.close()

    def test_status_snapshot_shape(self, tmp_path, racy_trace):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(racy_trace)
        scheduler = Scheduler(corpus, ResultsStore(), workers=1).start()
        try:
            scheduler.submit(entry.digest, ["hb+tc"])
            assert scheduler.wait_idle(timeout=60)
            snapshot = scheduler.status_snapshot(detail=True)
            assert snapshot["jobs"]["done"] == 1
            assert len(snapshot["shards"]) == 8
            job_row = snapshot["job_list"][0]
            assert job_row["status"] == JobStatus.DONE.value
            assert job_row["attempts"] == 1
        finally:
            scheduler.close()


class TestResultsStore:
    def test_record_and_reload(self, tmp_path):
        store = ResultsStore(tmp_path / "r.json")
        store.record("d" * 64, "hb+tc", {"race_count": 3})
        reopened = ResultsStore(tmp_path / "r.json")
        assert reopened.get("d" * 64, "hb+tc")["race_count"] == 3
        assert reopened.get("d" * 64, "hb+tc")["recorded_unix"] > 0

    def test_for_trace_filters_by_digest(self, tmp_path):
        store = ResultsStore()
        store.record("a" * 64, "hb+tc", {"race_count": 1})
        store.record("a" * 64, "hb+vc", {"race_count": 1})
        store.record("b" * 64, "hb+tc", {"race_count": 0})
        assert set(store.for_trace("a" * 64)) == {"hb+tc", "hb+vc"}
        assert len(store) == 3

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"schema": "other/1", "results": {}}')
        with pytest.raises(ValueError, match="unsupported results schema"):
            ResultsStore(path)

    def test_discard_supports_forced_reruns(self, tmp_path):
        store = ResultsStore(tmp_path / "r.json")
        store.record("a" * 64, "hb+tc", {"race_count": 1})
        store.discard("a" * 64, "hb+tc")
        assert not store.has("a" * 64, "hb+tc")

    def test_throttled_persistence_flushes_on_demand(self, tmp_path):
        # A large interval means record() only dirties memory after the
        # first save; flush() must make the tail durable.
        store = ResultsStore(tmp_path / "r.json", persist_interval=3600.0)
        store.record("a" * 64, "hb+tc", {"race_count": 1})  # first save is immediate
        store.record("a" * 64, "hb+vc", {"race_count": 1})  # throttled: memory only
        assert len(ResultsStore(tmp_path / "r.json")) == 1
        store.flush()
        assert len(ResultsStore(tmp_path / "r.json")) == 2

    def test_scheduler_close_flushes_results(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        builder_trace = TraceBuilder(name="t").write(1, "x").write(2, "x").build()
        entry, _ = corpus.ingest(builder_trace)
        results = ResultsStore(tmp_path / "results.json", persist_interval=3600.0)
        scheduler = Scheduler(corpus, results, workers=1).start()
        scheduler.submit(entry.digest, ["hb+tc+detect", "hb+vc+detect"])
        assert scheduler.wait_idle(timeout=60)
        scheduler.close()
        reopened = ResultsStore(tmp_path / "results.json")
        assert len(reopened) == 2


class TestCallbackErrorAccounting:
    """A raising on_result callback must not kill the monitor thread, and
    the dropped completion must be visible in the counters (the bugfix:
    it used to vanish without a trace)."""

    def test_raising_callback_is_counted_and_survived(self, trace_file):
        failures = []

        def exploding_callback(task_id, payload, error, attempts):
            failures.append(task_id)
            raise RuntimeError("subscriber bug")

        pool = WorkerPool(workers=1, on_result=exploding_callback).start()
        try:
            tasks = [
                WorkerTask(task_id=f"t{i}", trace_path=str(trace_file), spec="hb+tc")
                for i in range(3)
            ]
            for task in tasks:
                pool.submit(task)
            assert pool.wait(timeout=60)
            # Callback delivery is asynchronous to wait(): give the
            # monitor a beat to drain the completion queue.
            deadline = time.monotonic() + 30
            while len(failures) < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
            # Every completion reached the callback despite each raising.
            assert sorted(failures) == ["t0", "t1", "t2"]
            counters = pool.counters()
            assert counters["callback_errors"] == 3
            assert counters["jobs_done"] == 3
        finally:
            assert pool.close(timeout=10)

    def test_healthy_callback_counts_zero_errors(self, trace_file):
        seen = []
        pool = WorkerPool(
            workers=1, on_result=lambda *args: seen.append(args[0])
        ).start()
        try:
            pool.submit(WorkerTask(task_id="ok", trace_path=str(trace_file), spec="hb+tc"))
            assert pool.wait(timeout=60)
            deadline = time.monotonic() + 30
            while not seen and time.monotonic() < deadline:
                time.sleep(0.02)
            assert seen == ["ok"]
            assert pool.counters()["callback_errors"] == 0
        finally:
            assert pool.close(timeout=10)


class TestParallelTasks:
    """Segment-parallel execution through the serve surface."""

    @pytest.fixture
    def colf_trace_file(self, tmp_path):
        from repro.trace.colfmt import write_colf
        from util_traces import make_random_trace

        trace = make_random_trace(19, num_events=600, include_fork_join=True)
        path = tmp_path / "big.colf"
        with open(path, "wb") as handle:
            write_colf(iter(trace), handle, segment_events=64)
        return path

    def test_parallel_task_matches_sequential(self, colf_trace_file):
        sequential = execute_task(
            WorkerTask(task_id="s", trace_path=str(colf_trace_file), spec="hb+tc+detect")
        )
        parallel = execute_task(
            WorkerTask(
                task_id="p",
                trace_path=str(colf_trace_file),
                spec="hb+tc+detect",
                parallel=4,
            )
        )
        assert "parallel" in parallel and parallel["parallel"]["workers"] == 4
        assert "parallel" not in sequential
        assert parallel["events"] == sequential["events"]
        assert parallel["race_count"] == sequential["race_count"]
        assert parallel["races"] == sequential["races"]

    def test_parallel_on_text_trace_falls_back(self, trace_file):
        payload = execute_task(
            WorkerTask(
                task_id="t", trace_path=str(trace_file), spec="hb+tc+detect", parallel=4
            )
        )
        assert "parallel" not in payload
        assert payload["race_count"] == 1

    def test_scheduler_sets_parallel_for_large_colf_entries(self, tmp_path):
        from util_traces import make_random_trace

        corpus = TraceCorpus(tmp_path / "corpus")
        results = ResultsStore(tmp_path / "results.json")
        scheduler = Scheduler(
            corpus,
            results,
            workers=1,
            parallel_workers=4,
            parallel_threshold_events=100,
        )
        big, _ = corpus.ingest(make_random_trace(1, num_events=400), name="big")
        small, _ = corpus.ingest(make_random_trace(2, num_events=40), name="small")
        submitted = []
        scheduler.pool.submit = submitted.append  # capture without running
        scheduler.pool.start = lambda: scheduler.pool
        scheduler.start()
        scheduler.submit(big.digest, ["hb+tc+detect"])
        scheduler.submit(small.digest, ["hb+tc+detect"])
        by_digest = {task.task_id.split(":")[0]: task for task in submitted}
        assert len(submitted) == 2
        assert by_digest[big.digest[:12]].parallel == 4 or any(
            task.parallel == 4 for task in submitted
        )
        assert any(task.parallel == 1 for task in submitted)
