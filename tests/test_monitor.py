"""``tracing.Monitor``: its own wait and notify, over an RLock or a Lock.

``Monitor`` reimplements ``Condition.wait``, ``notify`` and
``notify_all`` on ``Condition``'s private ``_waiters``,
``_release_save`` and ``_acquire_restore``, so one test guards that the
interpreter still provides them.
"""

import threading
import time
from collections import deque

import pytest

from cmrr import Execution, ExecutionMode
from cmrr.tracing import Monitor


def test_condition_still_has_what_monitor_builds_on():
    for lock in (threading.Lock(), threading.RLock()):
        cond = threading.Condition(lock)
        for name in ("_waiters", "_release_save", "_acquire_restore"):
            assert hasattr(cond, name), (
                f"threading.Condition has no {name}; tracing.Monitor needs it")
        assert isinstance(cond._waiters, deque), "Condition._waiters is not a deque"


def _wait_until(predicate):
    deadline = time.monotonic() + 5
    while not predicate():
        assert time.monotonic() < deadline, "the threads did not get there"
        time.sleep(0.001)


def _park_in_order(monitor, lock, count):
    """Start ``count`` threads that park on ``monitor`` one after another;
    returns the threads and the list each appends its index to on waking
    (with what ``wait`` returned)."""
    woke, threads = [], []

    def waiter(i):
        with lock:
            woke.append((i, monitor.wait(5)))

    for i in range(count):
        threads.append(threading.Thread(target=waiter, args=(i,)))
        threads[-1].start()
        _wait_until(lambda: monitor.parked == i + 1)
    return threads, woke


@pytest.mark.parametrize("lock_type", [threading.RLock, threading.Lock])
def test_notify_wakes_the_longest_waiting_and_notify_all_wakes_all(lock_type):
    lock = lock_type()
    monitor = Monitor(lock)
    threads, woke = _park_in_order(monitor, lock, 4)
    with lock:
        monitor.notify(2)
        assert len(monitor._waiters) == 2
    _wait_until(lambda: len(woke) == 2)
    assert sorted(woke) == [(0, True), (1, True)]
    assert monitor.parked == 2
    with lock:
        monitor.notify()
    _wait_until(lambda: len(woke) == 3)
    assert woke[2] == (2, True)
    with lock:
        monitor.notify_all()
        assert not monitor._waiters
    for t in threads:
        t.join(5)
    assert sorted(woke) == [(i, True) for i in range(4)]
    assert monitor.parked == 0


def test_timed_out_wait_returns_false_and_leaves_nothing_behind():
    lock = threading.RLock()
    monitor = Monitor(lock)
    with lock:
        start = time.monotonic()
        assert monitor.wait(0.02) is False
        assert time.monotonic() - start >= 0.015
        assert not monitor._waiters
        assert monitor.parked == 0


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_wait_without_time_left_returns_false_at_once(timeout):
    lock = threading.RLock()
    monitor = Monitor(lock)
    with lock:
        start = time.monotonic()
        assert monitor.wait(timeout) is False
        assert time.monotonic() - start < 0.05
        assert not monitor._waiters
        assert monitor.parked == 0


def test_wait_releases_a_twice_held_rlock_and_restores_its_depth():
    lock = threading.RLock()
    monitor = Monitor(lock)
    result = []

    def waiter():
        with lock:
            with lock:
                result.append(monitor.wait(5))
            # One release left the lock held once: another thread still
            # cannot take it.
            result.append(_taken_elsewhere(lock))
        result.append(_taken_elsewhere(lock))

    t = threading.Thread(target=waiter)
    t.start()
    _wait_until(lambda: monitor.parked == 1)
    # The waiter holds the lock twice, yet this thread may take it.
    with lock:
        monitor.notify()
    t.join(5)
    assert result == [True, False, True]


def _taken_elsewhere(lock) -> bool:
    """Whether another thread can take ``lock`` right now."""
    got = []

    def attempt():
        got.append(lock.acquire(blocking=False))
        if got[0]:
            lock.release()

    t = threading.Thread(target=attempt)
    t.start()
    t.join(5)
    return got[0]


def test_run_end_monitor_waits_over_its_plain_lock():
    ex = Execution(ExecutionMode.PASSIVE)
    lock, monitor = ex.live_lock, ex.live_monitor
    assert type(lock) is type(threading.Lock())
    with lock:
        assert monitor.wait(0.01) is False
    threads, woke = _park_in_order(monitor, lock, 2)
    with lock:
        monitor.notify_all()
    for t in threads:
        t.join(5)
    assert sorted(woke) == [(0, True), (1, True)]
    assert monitor.parked == 0
    assert lock.acquire(blocking=False)
    lock.release()
