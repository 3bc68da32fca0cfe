"""``tracing.Monitor``: a wait set of its own over a Lock or an RLock held
once, with ``wait``, ``notify_all`` and ``due`` as its whole surface.
"""

import threading
import time

import pytest

from cmrr import Execution, ExecutionMode
from cmrr.tracing import Monitor


def test_monitor_surface_is_its_contract():
    lock = threading.Lock()
    monitor = Monitor(lock)
    assert {name for name in dir(monitor) if not name.startswith("_")} == {
        "due", "notify_all", "wait"}
    with pytest.raises(AttributeError):
        monitor.stray = 1
    assert lock.acquire(blocking=False), "building a Monitor took its lock"
    lock.release()


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
        _wait_until(lambda: len(monitor._waiters) == i + 1)
    return threads, woke


@pytest.mark.parametrize("lock_type", [threading.RLock, threading.Lock])
def test_notify_all_wakes_all(lock_type):
    lock = lock_type()
    monitor = Monitor(lock)
    threads, woke = _park_in_order(monitor, lock, 4)
    with lock:
        monitor.notify_all()
        assert not monitor._waiters
    for t in threads:
        t.join(5)
    assert sorted(woke) == [(i, True) for i in range(4)]
    assert not monitor._waiters


def test_timed_out_wait_returns_false_and_leaves_nothing_behind():
    lock = threading.RLock()
    monitor = Monitor(lock)
    with lock:
        start = time.monotonic()
        assert monitor.wait(0.02) is False
        assert time.monotonic() - start >= 0.015
        assert not monitor._waiters


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_wait_without_time_left_returns_false_at_once(timeout):
    lock = threading.RLock()
    monitor = Monitor(lock)
    with lock:
        start = time.monotonic()
        assert monitor.wait(timeout) is False
        assert time.monotonic() - start < 0.05
        assert not monitor._waiters


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
    assert not monitor._waiters
    assert lock.acquire(blocking=False)
    lock.release()
