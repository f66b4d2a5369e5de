"""Unit tests of :mod:`faults`: the seeded fault-injection harness.

Determinism is the load-bearing property: a chaos run that fails must
replay *identically* under the same seed, so every decision an injector
makes is pinned to its private ``random.Random(seed)``.
"""

import os
import pickle
import subprocess
import sys
import time

from faults import ChaosMonkey, FaultInjector, FaultyTask, kill_process, poison
from repro import TraceBuilder
from repro.serve.corpus import TraceCorpus
from repro.serve.jobs import Scheduler, job_id_of
from repro.serve.pool import WorkerTask
from repro.serve.results import ResultsStore


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def draw(seed):
            injector = FaultInjector(seed, rates={"kill": 0.5})
            return [
                (injector.should("kill"), round(injector.uniform(0, 1), 9))
                for _ in range(200)
            ]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_unknown_and_zero_rate_kinds_never_fire(self):
        injector = FaultInjector(0, rates={"off": 0.0})
        assert not any(injector.should("off") for _ in range(100))
        assert not any(injector.should("never-configured") for _ in range(100))

    def test_rate_one_always_fires(self):
        injector = FaultInjector(3, rates={"sure": 1.0})
        assert all(injector.should("sure") for _ in range(100))

    def test_maybe_stall_is_bounded_and_seeded(self):
        injector = FaultInjector(1, rates={"stall": 1.0})
        stall = injector.maybe_stall(max_seconds=0.001)
        assert 0.0 <= stall <= 0.001
        assert FaultInjector(1, rates={}).maybe_stall(max_seconds=0.001) == 0.0

    def test_choice_is_seeded(self):
        options = list(range(50))
        picks_a = [FaultInjector(5).choice(options) for _ in range(3)]
        picks_b = [FaultInjector(5).choice(options) for _ in range(3)]
        assert picks_a == picks_b


class TestFaultyTask:
    def test_pickles_as_the_fault_then_as_the_task(self):
        task = WorkerTask(task_id="t", trace_path="t.std", spec="hb+tc")
        faulty = FaultyTask(task, "hang", times=1)
        first = pickle.dumps(faulty)
        # Workers unpickle it without importing this test module.
        assert b"faults" not in first and b"sleep" in first
        assert pickle.loads(pickle.dumps(faulty)) == task

    def test_fires_on_every_delivery_by_default(self):
        faulty = FaultyTask(WorkerTask(task_id="t", trace_path="t.std", spec="hb+tc"))
        assert faulty.task_id == "t"  # all the pool reads in the parent
        for _ in range(3):
            wire = pickle.dumps(faulty)
            assert b"_exit" in wire and b"faults" not in wire

    def test_fires_on_the_first_n_deliveries_only(self):
        task = WorkerTask(task_id="t", trace_path="t.std", spec="hb+tc")
        faulty = FaultyTask(task, "crash", times=2)
        assert [b"_exit" in pickle.dumps(faulty) for _ in range(3)] == [True, True, False]
        assert pickle.loads(pickle.dumps(faulty)) == task

    def test_crash_delivery_exits_the_unpickling_process(self):
        wire = pickle.dumps(FaultyTask(WorkerTask(task_id="t", trace_path="t.std", spec="hb+tc")))
        # A fresh interpreter without tests/ on its path stands in for a
        # worker: the crash needs no test code to unpickle.
        child = subprocess.run(
            [sys.executable, "-c", "import pickle, sys; pickle.loads(sys.stdin.buffer.read())"],
            input=wire,
            timeout=60,
        )
        assert child.returncode == 13


class TestPoison:
    def test_poisons_only_the_chosen_job_ids_until_cured(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        entry, _ = corpus.ingest(TraceBuilder(name="a").write(1, "x").build())
        scheduler = Scheduler(corpus, ResultsStore(tmp_path / "results.jsonl"), workers=1)
        dispatched = []
        scheduler.pool.submit = dispatched.append  # record dispatches, run nothing
        poisoned = poison(scheduler, "hang")
        victim = job_id_of(entry.digest, "hb+vc")
        poisoned.add(victim)
        scheduler.submit(entry.digest, ["hb+tc", "hb+vc"])
        assert [type(task) for task in dispatched] == [WorkerTask, FaultyTask]
        assert dispatched[1].task_id == victim and b"sleep" in pickle.dumps(dispatched[1])
        scheduler._on_result(victim, None, "task timed out after 0.4s", 2)
        poisoned.discard(victim)
        scheduler.submit(entry.digest, ["hb+vc"], force=True)
        assert type(dispatched[-1]) is WorkerTask and dispatched[-1].task_id == victim


class TestProcessFaults:
    def test_kill_process_kills_and_tolerates_gone_pids(self):
        victim = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            kill_process(victim.pid)
            assert victim.wait(timeout=10) != 0
        finally:
            if victim.poll() is None:
                victim.kill()
        kill_process(victim.pid)  # already reaped: must not raise

    def test_chaos_monkey_kills_from_the_victim_list(self):
        victims = [
            subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
            for _ in range(2)
        ]
        pids = [victim.pid for victim in victims]
        monkey = ChaosMonkey(lambda: list(pids), seed=1, interval=0.05, kill_rate=1.0)
        monkey.start()
        try:
            deadline = time.monotonic() + 10
            while not monkey.kills and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            monkey.stop()
            for victim in victims:
                if victim.poll() is None:
                    victim.kill()
                victim.wait(timeout=10)
        assert monkey.kills and set(monkey.kills) <= set(pids)

    def test_chaos_monkey_with_no_victims_is_harmless(self):
        monkey = ChaosMonkey(lambda: [], seed=0, interval=0.01, kill_rate=1.0)
        monkey.start()
        time.sleep(0.05)
        monkey.stop()
        assert monkey.kills == []
        assert os.getpid()  # we are, in fact, still alive
