"""Reentrant locks and condition variables with acquisition-order replay.

Every completed acquisition, explicit ``acquire()`` calls as well as the
implicit reacquisitions performed when a condition wait returns, bumps the
lock's version counter. Explicit acquisitions record a LOCK event carrying the
pre-increment version; timed waits record AWAIT_SIGNALED/AWAIT_TIMEOUT
carrying the reacquisition version. Untimed waits record nothing: their
place in the order is pinned by the version increment itself plus the
other activities' recorded acquisitions.

Replay delays each explicit acquisition until the lock's version equals
the recorded one. Implicit reacquisitions are not event-gated, so their
ordering must be a deterministic function of lock state that recording
and replay share: wake selection by ``signal``/``signal_all`` is strict
FIFO, signaled waiters reacquire in that FIFO order with priority over
explicit acquirers, and a replayer whose recorded version currently
matches the lock (an explicit acquisition or a simulated timeout) goes
first, mirroring that, in the recording, it held the lock before the
signal it would otherwise defer to: while its gate is parked, its
version is in the lock monitor's ``due``.

Recorded timeouts are simulated: replay releases the lock and reacquires
it through the same interaction gate as an explicit acquisition, at the
recorded version, instead of letting wall time pass. Every other
condition wait parks once, for its reacquisition: the waiting activity
must head the implicit queue, which in replay only the actual (replayed)
signal puts it in, and the lock must be free. Both queues hold the
waiting activities themselves. A recorded signal then passes the
reacquisition version to ``record_interaction``, which checks it against
the trace as it does every event the program computes.

A condition wait whose park raises (an abort, a replay error, a
``KeyboardInterrupt``) leaves the lock unowned and withdraws from both
queues, waking the lock's waiters if it headed the implicit queue; the
enclosing ``with lock:`` then lets that error pass instead of raising
``NotOwner`` over it.

Nearly every acquisition is uncontended, so ``acquire`` and ``release``
enter the entity lock, a plain ``threading.Lock``, with ``acquire()`` and
``try``/``finally``, cheaper than ``with``, and ``acquire`` calls
``delay_interaction`` with no helper in between.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from .activities import Activity, current_activity
from .errors import NotOwner
from .events import AWAIT_SIGNALED, AWAIT_TIMEOUT, LOCK
from .tracing import (
    PASSIVE,
    REPLAY,
    WAIT_TICK,
    VersionedEntity,
    delay_interaction,
    increment_version,
    record_interaction,
    watchdog_wait,
)


class RRLock(VersionedEntity):
    """Reentrant exclusive lock; version counts completed acquisitions."""

    kind = "lock"

    def __init__(self):
        super().__init__()
        self._owner: Optional[Activity] = None
        self._depth = 0
        # Activities awaiting reacquisition after a condition wait, in the
        # order a signal, or a recording's deadline, moved them here.
        self._implicit_queue: deque[Activity] = deque()
        # Untimed condition waits record nothing but bump the version.
        self.untimed_reacquisitions = 0

    def check_version_completeness(self):
        versions = self.recorded_versions()
        if len(set(versions)) != len(versions):
            return f"lock {self.entity_id}: duplicate recorded versions"
        if any(v >= self.version for v in versions):
            return f"lock {self.entity_id}: recorded version beyond final counter"
        if len(versions) + self.untimed_reacquisitions != self.version:
            return (f"lock {self.entity_id}: {len(versions)} recorded + "
                    f"{self.untimed_reacquisitions} untimed reacquisitions "
                    f"!= final version {self.version}")
        return None

    # -- public operations ----------------------------------------------------

    def acquire(self) -> None:
        act = current_activity()
        lock = self._lock
        lock.acquire()
        try:
            if self._owner is act:
                self._depth += 1  # reentrant: deterministic, not recorded
                return
            delay_interaction(act, self, LOCK, self._gate_ready)
            self._owner = act
            self._depth = 1
            increment_version(self)
        finally:
            lock.release()

    def _gate_ready(self) -> bool:
        """Readiness of a gated acquisition; monitor held. Recording gives
        signaled waiters strict priority (FIFO), which makes the
        implicit-vs-explicit race a deterministic function of lock state;
        replay follows the recorded version, and implicit reacquirers
        defer to a parked gate (see _reacquire_implicit)."""
        return self._owner is None and (
            not self._implicit_queue or self.execution.mode is REPLAY)

    def release(self) -> None:
        act = current_activity()
        lock = self._lock
        lock.acquire()
        try:
            if self._owner is not act:
                raise NotOwner(f"{act.name} does not hold this lock")
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                if self._monitor._waiters:
                    self._monitor.notify_all()
        finally:
            lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        # A condition wait that raised has left the lock released: let its
        # error pass rather than mask it with ``NotOwner``.
        if exc_type is None or self._owner is current_activity():
            self.release()

    # -- internals shared with RRCondition -------------------------------------

    def _release_fully(self, act: Activity) -> int:
        # monitor held
        if self._owner is not act:
            raise NotOwner(f"{act.name} does not hold this lock")
        depth = self._depth
        self._owner = None
        self._depth = 0
        if self._monitor._waiters:
            self._monitor.notify_all()
        return depth

    def _reacquire_implicit(self, act: Activity, depth: int) -> None:
        """Reacquire after a condition wait; FIFO among implicit waiters,
        deferring to any replayed gate parked for the current version."""
        # monitor held; heading the implicit queue implies a signal or timeout
        def may_go():
            return (self._owner is None
                    and self._implicit_queue
                    and self._implicit_queue[0] is act
                    and self.version not in self._monitor.due)

        if not may_go():  # a record-mode timed wait may already go
            watchdog_wait(self._monitor, may_go, self.execution)
        self._implicit_queue.popleft()
        self._owner = act
        self._depth = depth


class RRCondition:
    """Condition variable bound to an RRLock; FIFO wake order. Its wait
    queue holds the waiting activities; a signal moves them to the lock's
    implicit queue. Both waits run one body, ``_wait``; only a timed wait
    records its outcome."""

    def __init__(self, lock: RRLock):
        self._lock = lock
        self._wait_queue: deque[Activity] = deque()

    def wait(self) -> None:
        """Release the lock, wait for a signal, reacquire.

        Records no event; the reacquisition bumps the lock version, which
        is what pins its place in the replayed order. Callers must re-check
        their predicate in a loop, as with any condition variable.
        """
        self._wait(None)

    def wait_timeout(self, timeout: float) -> bool:
        """Timed wait; returns True if signaled, False on timeout.

        The outcome is recorded and replay reproduces it: a recorded
        timeout returns False without waiting out the clock, a recorded
        signal waits for the actual (replayed) signal.
        """
        return self._wait(timeout)

    def _wait(self, timeout: Optional[float]) -> bool:
        """Release the lock, wait in FIFO order and reacquire it, bumping
        its version; untimed (``timeout`` None), count an untimed
        reacquisition, else record the outcome. True if signaled."""
        lock = self._lock
        act = current_activity()
        ex = lock.execution
        replayed = timeout is not None and ex.mode is REPLAY
        with lock._lock:
            if replayed:
                act.replay_queue.expect(AWAIT_SIGNALED, AWAIT_TIMEOUT)
            depth = lock._release_fully(act)
            if replayed and act.replay_queue.peek()[0] == AWAIT_TIMEOUT:
                # taken as an explicit acquisition, at the recorded version
                delay_interaction(act, lock, AWAIT_TIMEOUT, lock._gate_ready)
                lock._owner = act
                lock._depth = depth
                increment_version(lock)
                return False
            self._wait_queue.append(act)
            signaled = True
            try:
                if timeout is not None and not replayed:
                    # The only wait bounded by wall time. An activity that no
                    # signal has moved out of the wait queue by the deadline
                    # withdraws and rejoins as a timed-out reacquirer,
                    # atomically because signals move waiters only under this
                    # monitor.
                    deadline = time.monotonic() + timeout
                    while act in self._wait_queue:
                        remaining = deadline - time.monotonic()
                        if not remaining > 0:  # also times out on nan
                            self._wait_queue.remove(act)
                            lock._implicit_queue.append(act)
                            signaled = False
                            break
                        ex.check_abort()
                        lock._monitor.wait(min(WAIT_TICK, remaining))
                lock._reacquire_implicit(act, depth)
            except BaseException:
                # The park raised: leave both queues, the lock unowned, and
                # wake the lock's waiters if the next reacquirer changed.
                implicit = lock._implicit_queue
                headed = implicit and implicit[0] is act
                for queue in (self._wait_queue, implicit):
                    if act in queue:
                        queue.remove(act)
                if headed and lock._monitor._waiters:
                    lock._monitor.notify_all()
                raise
            if timeout is not None:
                record_interaction(act, AWAIT_SIGNALED if signaled else AWAIT_TIMEOUT,
                                   lock.version, entity=lock)
            elif ex.mode is not PASSIVE:
                lock.untimed_reacquisitions += 1
            increment_version(lock)
            return signaled

    def signal(self) -> None:
        """Wake the longest-waiting waiter; no event is recorded."""
        self._signal(every=False)

    def signal_all(self) -> None:
        """Wake all waiters, preserving their waiting order."""
        self._signal(every=True)

    def _signal(self, every: bool) -> None:
        """Move the longest-waiting activity, or ``every`` one in order, to
        the lock's implicit queue; the caller must hold the lock."""
        lock = self._lock
        act = current_activity()
        with lock._lock:
            if lock._owner is not act:
                raise NotOwner(f"{act.name} does not hold the condition's lock")
            waiters = self._wait_queue
            if not waiters:
                return
            for _ in range(len(waiters) if every else 1):
                lock._implicit_queue.append(waiters.popleft())
            if lock._monitor._waiters:
                lock._monitor.notify_all()
