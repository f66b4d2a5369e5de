"""Deterministic fault injection for the serve pipeline (test helpers).

Durability claims are earned by killing processes on purpose; this
module is that discipline for ``repro serve``.  Everything random is
seeded — a :class:`FaultInjector` holds one ``random.Random(seed)`` and
every decision (kill this worker?  stall this IO?) is drawn from it, so
a chaos test that fails replays *identically* under the same seed.

The helpers, by fault class:

* **worker faults** — :class:`FaultyTask` wraps a
  :class:`~repro.serve.pool.WorkerTask` so that the worker receiving it
  exits or wedges before the analysis starts, and :func:`poison` routes
  chosen job ids of a :class:`~repro.serve.jobs.Scheduler` through it;
* **process faults** — :func:`kill_process`, and a :class:`ChaosMonkey`
  thread SIGKILLing random live workers at seeded jittered intervals;
* **torn writes** — :func:`tear_tail` and :func:`append_garbage` model a
  crash mid-append for the torture and differential-recovery suites;
* **network faults** — :func:`reset_socket` closes a socket with
  ``SO_LINGER 0`` so the peer sees a hard RST (``ECONNRESET``), the
  exact transient the client's backoff must absorb.

``tests/`` is on pytest's ``pythonpath``, so test modules import this
as ``faults``.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import struct
import threading
import time
from dataclasses import astuple
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from repro.serve.jobs import Scheduler
from repro.serve.pool import WorkerTask

#: Exit signal used for hard kills — the "process vanished" fault, not a
#: catchable shutdown.
KILL_SIGNAL = signal.SIGKILL if hasattr(signal, "SIGKILL") else signal.SIGTERM


class FaultInjector:
    """Seeded yes/no + magnitude decisions for fault sites.

    ``rates`` maps a fault kind (free-form string, e.g. ``"worker_kill"``,
    ``"torn_write"``, ``"stall"``) to a probability in ``[0, 1]``;
    unknown kinds never fire.  All draws come from one private
    ``random.Random(seed)``, so a fixed seed gives a fixed fault
    schedule regardless of wall clock or interleaving *within one
    decision site* (concurrent sites should each own an injector).
    """

    def __init__(self, seed: int = 0, rates: Optional[Dict[str, float]] = None) -> None:
        self.seed = seed
        self.rates = dict(rates or {})
        self._random = random.Random(seed)

    def should(self, kind: str) -> bool:
        """One seeded Bernoulli draw against the kind's configured rate."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        return self._random.random() < rate

    def uniform(self, low: float, high: float) -> float:
        """One seeded uniform draw (stall durations, kill intervals)."""
        return self._random.uniform(low, high)

    def choice(self, options: List[object]) -> object:
        """One seeded choice among ``options`` (victim selection)."""
        return self._random.choice(options)

    def maybe_stall(self, kind: str = "stall", max_seconds: float = 0.05) -> float:
        """Sleep a seeded duration when the ``kind`` rate fires.

        Returns the stall applied (0.0 when the draw declined) — the
        slow-IO fault: long enough to shuffle thread interleavings,
        bounded so suites stay fast.
        """
        if not self.should(kind):
            return 0.0
        duration = self.uniform(0.0, max_seconds)
        time.sleep(duration)
        return duration


# -- worker faults ----------------------------------------------------------------------

#: What a faulty delivery unpickles to in the worker: a hard exit (the
#: pool reports ``worker crashed (exit code 13)``) or a wedge that only
#: the pool's task timeout or terminate ends.
_FAULT_CALLS = {
    "crash": (os._exit, (13,)),
    "hang": (time.sleep, (3600,)),
}


class FaultyTask:
    """A :class:`WorkerTask` whose delivery to a worker crashes or wedges it.

    The pool pickles a task each time it hands it to a worker.  For the
    first ``times`` deliveries (all of them when ``times`` is ``None``)
    this wrapper pickles as a call to ``os._exit(13)`` (``"crash"``) or
    ``time.sleep(3600)`` (``"hang"``), so the worker unpickling it dies
    or wedges before :func:`~repro.serve.pool.execute_task` runs; later
    deliveries pickle as the wrapped task.  The pickled form names only
    ``os._exit``, ``time.sleep`` and ``WorkerTask``, so workers never
    import this module.  In the parent the pool only reads ``task_id``.
    """

    def __init__(self, task: WorkerTask, fault: str = "crash", times: Optional[int] = None) -> None:
        self.task = task
        self.task_id = task.task_id
        self._call = _FAULT_CALLS[fault]
        self._remaining = times
        self._lock = threading.Lock()

    def __reduce__(self):
        with self._lock:
            if self._remaining is None:
                return self._call
            if self._remaining > 0:
                self._remaining -= 1
                return self._call
        return WorkerTask, astuple(self.task)


def poison(scheduler: Scheduler, fault: str = "crash") -> Set[str]:
    """Deliver the scheduler's jobs named in the returned set as :class:`FaultyTask`.

    Wraps ``scheduler.pool.submit``.  Add a job id to the set to poison
    every later dispatch of it; discard the id to cure it.
    """
    poisoned: Set[str] = set()
    submit = scheduler.pool.submit

    def poisoning_submit(task: WorkerTask) -> None:
        submit(FaultyTask(task, fault) if task.task_id in poisoned else task)

    scheduler.pool.submit = poisoning_submit
    return poisoned


# -- process faults ----------------------------------------------------------------------


def kill_process(pid: int) -> None:
    """SIGKILL ``pid`` (no cleanup, no handlers — the crash being tested).

    A process that is already gone is not an error: chaos races real
    exits by design.
    """
    try:
        os.kill(pid, KILL_SIGNAL)
    except (ProcessLookupError, PermissionError):
        pass


class ChaosMonkey:
    """Background thread SIGKILLing random live worker processes.

    ``victims`` is a zero-argument callable returning the currently
    killable pids (e.g. the worker pool's live process ids) — evaluated
    fresh each round, so respawned workers rejoin the lottery.  Interval
    and victim selection are drawn from the injector, so a seed fully
    determines the kill schedule.
    """

    def __init__(
        self,
        victims: Callable[[], List[int]],
        *,
        seed: int = 0,
        interval: float = 2.0,
        kill_rate: float = 0.5,
    ) -> None:
        self._victims = victims
        self._injector = FaultInjector(seed, rates={"worker_kill": kill_rate})
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Pids killed so far (for tests and status reporting).
        self.kills: List[int] = []

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-chaos-monkey", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self._injector.uniform(0.5, self._interval)):
            if not self._injector.should("worker_kill"):
                continue
            pids = [pid for pid in self._victims() if pid]
            if not pids:
                continue
            victim = int(self._injector.choice(list(pids)))  # type: ignore[arg-type]
            kill_process(victim)
            self.kills.append(victim)


# -- torn-write faults -------------------------------------------------------------------


def tear_tail(path: Union[str, Path], drop_bytes: int) -> int:
    """Truncate the last ``drop_bytes`` bytes off ``path`` (a torn write).

    Models a crash mid-append: the file ends in an incomplete record.
    Returns the resulting size.  Dropping more than the file holds
    empties it (a crash can tear everything).
    """
    path = Path(path)
    size = path.stat().st_size
    keep = max(0, size - max(0, drop_bytes))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


def append_garbage(path: Union[str, Path], data: bytes = b'{"torn":') -> None:
    """Append an unterminated/corrupt record — a tear that *looks* like data."""
    with open(path, "ab") as handle:
        handle.write(data)


# -- network faults ----------------------------------------------------------------------


def reset_socket(sock: socket.socket) -> None:
    """Close ``sock`` so the peer sees a hard RST, not a graceful FIN.

    ``SO_LINGER`` with a zero timeout makes ``close()`` discard any
    unsent data and send RST — the peer's next read/write raises
    ``ECONNRESET``, which is the transient the client retry logic is
    specified against.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
