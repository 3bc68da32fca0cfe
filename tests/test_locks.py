"""Lock acquisition order, condition waits, and timed-wait outcome replay."""

import threading
import time

import pytest

from cmrr import (
    EventType,
    RRCondition,
    RRLock,
    TraceEvent,
    parse_trace,
    spawn_thread,
)
from cmrr.errors import NotOwner, ReplayTypeMismatch
from conftest import note_watchdog_waits, passive_run, record_run, replay_run, rewrite_trace


def _type_counts(trace, activity_id):
    from collections import Counter

    return Counter(e.event_type for e in trace.queues[activity_id].events)


def test_single_activity_two_acquisitions(trace_path):
    def program():
        lock = RRLock()
        lock.acquire()
        lock.release()
        lock.acquire()
        lock.release()
        return lock.version

    ex, result = record_run(program, trace_path)
    assert result.outputs == 2
    events = [e for e in parse_trace(trace_path).queues[0].events
              if e.event_type == EventType.LOCK]
    assert [(e.event_type, e.data) for e in events] == [
        (EventType.LOCK, 0), (EventType.LOCK, 1),
    ]


def test_release_only_acquisitions_recorded(trace_path):
    def program():
        lock = RRLock()
        for _ in range(100):
            with lock:
                pass
        return lock.version

    ex, result = record_run(program, trace_path)
    assert result.outputs == 100
    counts = _type_counts(parse_trace(trace_path), 0)
    assert counts[EventType.LOCK] == 100


def test_reentrant_acquisition_not_recorded(trace_path):
    def program():
        lock = RRLock()
        with lock:
            with lock:
                with lock:
                    pass
        return lock.version

    ex, result = record_run(program, trace_path)
    assert result.outputs == 1
    counts = _type_counts(parse_trace(trace_path), 0)
    assert counts[EventType.LOCK] == 1


def test_release_without_acquire_raises():
    def program():
        RRLock().release()

    with pytest.raises(NotOwner):
        passive_run(program)


def test_condition_ops_require_lock():
    def program(op):
        lock = RRLock()
        cond = RRCondition(lock)
        getattr(cond, op)()

    for op in ("wait", "signal", "signal_all"):
        with pytest.raises(NotOwner):
            passive_run(program, op)


def test_signal_with_no_waiters_is_noop(trace_path):
    def program():
        lock = RRLock()
        cond = RRCondition(lock)
        with lock:
            cond.signal()
            cond.signal_all()
        return lock.version

    ex, result = record_run(program, trace_path)
    assert result.outputs == 1  # only the explicit acquisition
    counts = _type_counts(parse_trace(trace_path), 0)
    assert counts[EventType.LOCK] == 1
    assert EventType.AWAIT_SIGNALED not in counts


def _contention_program(delays):
    lock = RRLock()
    order = []

    def worker(tag, delay):
        time.sleep(delay)
        with lock:
            order.append(tag)

    a1 = spawn_thread(worker, "A1", delays[0])
    a2 = spawn_thread(worker, "A2", delays[1])
    a1.join()
    a2.join()
    return {"order": order}


def test_recorded_order_reproduced_under_inverted_arrival(trace_path):
    ex, recorded = record_run(_contention_program, trace_path, (0.03, 0.0))
    assert recorded.outputs["order"] == ["A2", "A1"]
    for _ in range(20):
        ex2, replayed = replay_run(_contention_program, trace_path, (0.0, 0.02))
        assert replayed.outputs["order"] == ["A2", "A1"]
        assert replayed.digest == recorded.digest


def test_lock_version_counts_explicit_and_implicit_acquisitions(trace_path):
    def program():
        lock = RRLock()
        cond = RRCondition(lock)
        state = {"ready": False}

        def waiter():
            with lock:
                while not state["ready"]:
                    cond.wait()

        t = spawn_thread(waiter)
        time.sleep(0.05)
        with lock:
            state["ready"] = True
            cond.signal()
        t.join()
        return lock.version

    ex, result = record_run(program, trace_path)
    # waiter's explicit + main's explicit + waiter's implicit reacquisition
    assert result.outputs == 3
    counts = _type_counts(parse_trace(trace_path), 0)
    total_locks = sum(
        _type_counts(parse_trace(trace_path), aid)[EventType.LOCK]
        for aid in parse_trace(trace_path).queues
    )
    assert total_locks == 2  # untimed wait reacquisition records nothing


def _producer_consumers(n_items):
    lock = RRLock()
    cond = RRCondition(lock)
    queue = []
    wakes = []
    done = {"produced": 0}

    def consumer(tag):
        consumed = 0
        while True:
            with lock:
                while not queue and done["produced"] < n_items:
                    cond.wait()
                if not queue and done["produced"] >= n_items:
                    return
                item = queue.pop(0)
                wakes.append((tag, item))
            consumed += 1

    def producer():
        for i in range(n_items):
            with lock:
                queue.append(i)
                done["produced"] += 1
                cond.signal()
                time.sleep(0)
        with lock:
            cond.signal_all()

    consumers = [spawn_thread(consumer, t) for t in ("c1", "c2", "c3")]
    prod = spawn_thread(producer)
    prod.join()
    for c in consumers:
        c.join()
    return {"wakes": wakes}


def test_producer_consumer_wake_order_stable_across_replays(trace_path):
    ex, recorded = record_run(_producer_consumers, trace_path, 12, seed=5)
    assert sorted(i for _, i in recorded.outputs["wakes"]) == list(range(12))
    for seed in range(20):
        ex2, replayed = replay_run(_producer_consumers, trace_path, 12, seed=seed)
        assert replayed.outputs["wakes"] == recorded.outputs["wakes"]
        assert replayed.digest == recorded.digest


def _signal_all_program():
    lock = RRLock()
    cond = RRCondition(lock)
    state = {"go": False}
    wake_order = []

    def waiter(tag, start_delay):
        time.sleep(start_delay)
        with lock:
            while not state["go"]:
                cond.wait()
            wake_order.append(tag)

    waiters = [spawn_thread(waiter, tag, 0.01 * i)
               for i, tag in enumerate(("w1", "w2", "w3"))]
    time.sleep(0.08)
    with lock:
        state["go"] = True
        cond.signal_all()
    for t in waiters:
        t.join()
    return {"wake_order": wake_order}


def test_signal_all_wakes_every_waiter_in_replayable_order(trace_path):
    ex, recorded = record_run(_signal_all_program, trace_path)
    assert sorted(recorded.outputs["wake_order"]) == ["w1", "w2", "w3"]
    for _ in range(10):
        ex2, replayed = replay_run(_signal_all_program, trace_path)
        assert replayed.outputs["wake_order"] == recorded.outputs["wake_order"]
        assert replayed.digest == recorded.digest


def _timeout_program():
    lock = RRLock()
    cond = RRCondition(lock)
    outcomes = []

    def waiter():
        with lock:
            outcomes.append(cond.wait_timeout(5.0))   # will be signaled
            outcomes.append(cond.wait_timeout(0.4))   # nobody signals: times out

    t = spawn_thread(waiter)
    time.sleep(0.1)
    with lock:
        cond.signal()
    t.join()
    return {"outcomes": outcomes}


def test_wait_timeout_outcomes_replay_without_waiting(trace_path):
    ex, recorded = record_run(_timeout_program, trace_path)
    assert recorded.outputs["outcomes"] == [True, False]

    counts = {}
    trace = parse_trace(trace_path)
    for aid in trace.queues:
        for e in trace.queues[aid].events:
            counts[e.event_type] = counts.get(e.event_type, 0) + 1
    assert counts[EventType.AWAIT_SIGNALED] == 1
    assert counts[EventType.AWAIT_TIMEOUT] == 1

    for _ in range(5):
        start = time.monotonic()
        ex2, replayed = replay_run(_timeout_program, trace_path)
        elapsed = time.monotonic() - start
        assert replayed.outputs["outcomes"] == [True, False]
        # recorded timeout is simulated: replay must beat the 0.4s timer
        assert elapsed < 0.4, f"replay took {elapsed:.2f}s"
        assert replayed.digest == recorded.digest


def _nan_wait_program():
    lock = RRLock()
    cond = RRCondition(lock)
    with lock:
        return cond.wait_timeout(float("nan"))


@pytest.mark.parametrize("mode", ["passive", "record"])
def test_nan_timed_wait_times_out_at_once(trace_path, mode):
    """A NaN timeout times out at once, as ``threading.Condition.wait``
    does, instead of waiting for a signal that never comes. The run goes
    in a daemon thread, so that a wait that hangs fails the test."""
    runs = []
    runner = threading.Thread(daemon=True, target=lambda: runs.append(
        passive_run(_nan_wait_program) if mode == "passive"
        else record_run(_nan_wait_program, trace_path)))
    runner.start()
    runner.join(1.0)
    assert not runner.is_alive(), "the NaN wait is still blocked after 1 s"
    [(_, result)] = runs
    assert result.outputs is False
    if mode == "record":
        assert _type_counts(parse_trace(trace_path), 0) == {
            EventType.LOCK: 1, EventType.AWAIT_TIMEOUT: 1}
        _, replayed = replay_run(_nan_wait_program, trace_path)
        assert replayed.outputs is False
        assert replayed.digest == result.digest


@pytest.mark.parametrize("shift", [1, 5])
def test_replayed_signal_at_wrong_version_is_reported(trace_path, shift):
    """A timed wait whose recorded AWAIT_SIGNALED version was changed fails
    the replay instead of reacquiring silently at another version."""
    ex, recorded = record_run(_timeout_program, trace_path)
    signaled = []

    def edit(activity_id, events):
        for i, event in enumerate(events):
            if event.event_type == EventType.AWAIT_SIGNALED:
                signaled.append((activity_id, event.data))
                events[i] = TraceEvent(event.event_type, event.data + shift)
        return events

    rewrite_trace(trace_path, edit)
    [(waiter_id, actual)] = signaled
    lock_id = next(e.entity_id for e in ex.entities if e.kind == "lock")
    start = time.monotonic()
    with pytest.raises(ReplayTypeMismatch) as info:
        replay_run(_timeout_program, trace_path, watchdog=3.0)
    assert time.monotonic() - start < 1.0
    assert str(info.value) == (
        f"activity {waiter_id}: AWAIT_SIGNALED(data={actual}) on lock {lock_id}, "
        f"trace holds AWAIT_SIGNALED(data={actual + shift})")


def _turn_program():
    lock = RRLock()
    cond = RRCondition(lock)
    state = {"turn": 0, "waits": 0}

    def player(i):
        # Each player starts the next lower one while it holds the lock, so
        # players 4..1 all wait before player 0 takes the first turn.
        with lock:
            child = spawn_thread(player, i - 1) if i else None
            while state["turn"] != i:
                state["waits"] += 1
                cond.wait()
            state["turn"] += 1
            cond.signal_all()
        if child:
            child.join()

    spawn_thread(player, 4).join()
    return state


@pytest.mark.parametrize("program, gated, condition_waits", [
    (_turn_program, 5, 10),      # 5 acquisitions, 4 + 3 + 2 + 1 condition waits
    (_timeout_program, 2 + 1, 1),  # 2 acquisitions, 1 timeout, 1 signaled wait
])
def test_each_replayed_condition_wait_parks_once(trace_path, monkeypatch, program,
                                                gated, condition_waits):
    """In replay every condition wait that awaits a signal parks exactly
    once, until it heads the implicit queue and may take the lock; a gated
    acquisition (explicit, or a simulated timeout) parks at most once, and
    only when it is blocked."""
    ex, recorded = record_run(program, trace_path)
    waits = note_watchdog_waits(monkeypatch)
    per_wait = []
    reacquire = RRLock._reacquire_implicit

    def noting_reacquire(lock, act, depth):
        me = threading.get_ident()
        before = sum(thread == me for _, _, thread in waits)
        reacquire(lock, act, depth)
        per_wait.append(sum(thread == me for _, _, thread in waits) - before)

    monkeypatch.setattr(RRLock, "_reacquire_implicit", noting_reacquire)
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.outputs == recorded.outputs
    assert replayed.digest == recorded.digest
    assert per_wait == [1] * condition_waits
    assert len(waits) - condition_waits <= gated
    assert all(blocked for _, blocked, _ in waits)


def test_lock_order_invariant_from_entity_logs(trace_path):
    ex, recorded = record_run(_contention_program, trace_path, (0.0, 0.01))
    lock_logs = [e.log_entries() for e in ex.entities if e.kind == "lock"]
    ex2, _ = replay_run(_contention_program, trace_path, (0.01, 0.0))
    replay_logs = [e.log_entries() for e in ex2.entities if e.kind == "lock"]
    assert lock_logs == replay_logs


def _await(predicate):
    deadline = time.monotonic() + 5
    while not predicate():
        assert time.monotonic() < deadline, "the program did not get there"
        time.sleep(0.001)


def _timeout_under_holder_program(rounds, recording):
    """Per round: an untimed waiter U waits, then a timed waiter T. The
    main activity takes the lock, and recording holds it until T has timed
    out, then signals U and releases. T reacquires at version 3, U at 4."""
    outcomes = []
    for _ in range(rounds):
        lock = RRLock()
        cond = RRCondition(lock)

        def untimed():
            with lock:
                cond.wait()

        def timed():
            with lock:
                outcomes.append(cond.wait_timeout(0.1))

        u = spawn_thread(untimed)
        _await(lambda: lock.version == 1 and lock._owner is None)
        t = spawn_thread(timed)
        _await(lambda: lock.version == 2 and lock._owner is None)
        with lock:
            if recording:
                _await(lambda: lock._implicit_queue)  # T has timed out
            cond.signal()
        u.join()
        t.join()
    return outcomes


def test_signaled_reacquisition_defers_to_a_parked_replayed_timeout(trace_path):
    """In replay the timed-out waiter is parked in the gate for version 3
    when the main activity releases, and the signaled waiter heads the
    implicit queue: both could take the lock. The signaled one must defer,
    since the gate's version is in the lock monitor's ``due``; taking
    version 3 would leave the gate waiting for ever. Without the deference
    about two rounds in three deadlock, so six rounds catch it."""
    rounds = 6
    ex, recorded = record_run(_timeout_under_holder_program, trace_path, rounds, True)
    assert recorded.outputs == [False] * rounds
    for lock in (e for e in ex.entities if e.kind == "lock"):
        assert [(t, d) for _, t, d in lock.log_entries()] == [
            (EventType.LOCK, 0), (EventType.LOCK, 1), (EventType.LOCK, 2),
            (EventType.AWAIT_TIMEOUT, 3)]
        assert lock.version == 5
    _, replayed = replay_run(_timeout_under_holder_program, trace_path, rounds, False,
                             watchdog=1.0)
    assert replayed.digest == recorded.digest


def _replay_with_a_bumped_lock_tag(trace_path, held):
    """The main activity's LOCK event becomes an AWAIT_SIGNALED, so the gate
    inside ``acquire`` raises."""
    def program():
        held[:] = [RRLock()]
        with held[0]:
            pass

    record_run(program, trace_path)
    rewrite_trace(trace_path, lambda _, events: [
        TraceEvent(EventType.AWAIT_SIGNALED, e.data) if e.event_type == EventType.LOCK else e
        for e in events])
    with pytest.raises(ReplayTypeMismatch):
        replay_run(program, trace_path)


def _abort_a_parked_acquire(trace_path, held):
    """A thread parks in ``acquire`` behind the main activity, which then
    fails the run; the parked wait raises the abort at its next tick, and
    the run waits for that before it raises."""
    waiters = []

    def program():
        lock = RRLock()
        held[:] = [lock]
        lock.acquire()
        waiters.append(spawn_thread(lock.acquire))
        _await(lambda: lock._monitor._waiters)
        raise RuntimeError("main failed")

    with pytest.raises(RuntimeError, match="main failed"):
        passive_run(program)
    assert waiters[0].done


def _release_a_lock_not_held(trace_path, held):
    def program():
        held[:] = [RRLock()]
        held[0].release()

    with pytest.raises(NotOwner):
        passive_run(program)


@pytest.mark.parametrize("fail", [
    _replay_with_a_bumped_lock_tag, _abort_a_parked_acquire, _release_a_lock_not_held,
], ids=["mismatch", "abort", "not-owner"])
def test_a_failing_acquire_or_release_leaves_the_entity_lock_free(trace_path, fail):
    """``acquire`` and ``release`` release the entity lock however they
    leave, or every later operation on the lock would block for ever.
    Another thread, started before the run, must then be able to take
    it."""
    held, taken = [], []
    asked = threading.Event()

    def probe():
        asked.wait(10)
        entity_lock = held[0]._lock
        taken.append(entity_lock.acquire(blocking=False))
        if taken[0]:
            entity_lock.release()

    prober = threading.Thread(target=probe)
    prober.start()
    try:
        fail(trace_path, held)
    finally:
        asked.set()
        prober.join(5)
    assert not prober.is_alive()
    assert len(held) == 1 and taken == [True]


class _Interrupted(BaseException):
    """Raised from a condition wait's park, as a ``KeyboardInterrupt`` is."""


def _interrupted_wait_program(held, signal_first):
    """Two threads wait on a condition and each one's park raises
    ``_Interrupted``: at once, or, with ``signal_first``, once the main
    activity, holding the lock, has signaled them both, so that the first
    to withdraw leaves the other at the head of the reacquisition queue.
    The main activity then joins them."""
    def program():
        lock = RRLock()
        cond = RRCondition(lock)
        held[:] = [lock, cond]

        def waiter():
            with lock:
                cond.wait()

        children = [spawn_thread(waiter) for _ in range(2)]
        if signal_first:
            _await(lambda: len(cond._wait_queue) == 2)
            with lock:
                cond.signal_all()
                _await(lambda: not lock._implicit_queue)
        for child in children:
            child.join()

    return program


@pytest.mark.parametrize("signal_first", [False, True], ids=["waiting", "signaled"])
@pytest.mark.parametrize("mode", ["passive", "record", "replay"])
def test_an_error_raised_in_a_condition_wait_reaches_run_as_itself(
        trace_path, monkeypatch, mode, signal_first):
    """The park's own error, not ``NotOwner`` from the enclosing ``with``,
    ends the run, and the waiters leave both queues and the lock free."""
    from cmrr import locks

    real_wait = locks.watchdog_wait

    def interrupting_wait(monitor, may_go, execution):
        def interrupted():
            if may_go():
                return True
            if signal_first:
                # Only the head raises, once the other waiter, if still
                # queued, is parked again: its withdrawal must wake that one.
                implicit = held[0]._implicit_queue
                if not (implicit and implicit[0] is locks.current_activity()
                        and (len(implicit) == 1 or monitor._waiters)):
                    return False
            raise _Interrupted("interrupted while parked")
        if interrupted():
            return
        real_wait(monitor, interrupted, execution)

    held = []
    program = _interrupted_wait_program(held, signal_first)
    monkeypatch.setattr(locks, "watchdog_wait", interrupting_wait)
    runs = {"passive": lambda: passive_run(program),
            "record": lambda: record_run(program, trace_path)}
    if mode == "replay":
        with pytest.raises(_Interrupted):
            runs["record"]()
        runs["replay"] = lambda: replay_run(program, trace_path)
    with pytest.raises(_Interrupted, match="interrupted while parked"):
        runs[mode]()
    lock, cond = held
    assert lock._owner is None
    assert not cond._wait_queue and not lock._implicit_queue
