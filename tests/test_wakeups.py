"""Monitors skip a wake-up when nobody is parked, and never lose one.

Every wake-up on an entity monitor, and on the execution's run-end
monitor, is guarded by the monitor's waiter deque, ``_waiters``. These
tests check both halves of that rule: an uncontended operation makes no
``notify_all`` call at all, and a thread parked in ``watchdog_wait`` is
still woken at once, not by its next wait tick, by each kind of operation
that can unblock it, and so are joins and the end of a run. A channel
parks its claims apart from the waiting sides of its rendezvous, and a
test checks that its waits seldom wake to a predicate that is still
false. Over every benchmark, a model operation enters ``watchdog_wait``
only to park, and leaves no parked waiter or awaited version behind.
"""

import threading
import time

import pytest

from cmrr import (
    Channel,
    EventType,
    Execution,
    ExecutionMode,
    PerturbationPlan,
    Promise,
    RRLock,
    TraceEvent,
    VersionedEntity,
    bench,
    increment_version,
    send,
    spawn_actor,
    spawn_process,
    spawn_thread,
)
from cmrr.activities import ThreadActivity
from cmrr.errors import ReplayDeadlock
from cmrr.tracing import WAIT_TICK, Monitor, watchdog_wait
from conftest import count_wasted_wakes, note_watchdog_waits, rewrite_trace
from test_primitives import SMALL_PARAMS


def test_uncontended_operations_make_no_notify_calls(monkeypatch):
    notified = []
    original = Monitor.notify_all

    def counting(self):
        notified.append(self)
        return original(self)

    monkeypatch.setattr(Monitor, "notify_all", counting)

    def program():
        lock, entity = RRLock(), VersionedEntity()
        lock.acquire()
        lock.release()
        increment_version(entity)
        return [lock._monitor, entity._monitor]

    monitors = Execution(ExecutionMode.RECORD, sink="discard").run(program).outputs
    assert [m for m in notified if any(m is mon for mon in monitors)] == []


def _wait_until_parked(monitor):
    deadline = time.monotonic() + 5
    while not monitor._waiters:
        assert time.monotonic() < deadline, "nobody parked on the monitor"
        time.sleep(0.001)


def _wake_program(make, park, wake, parks_on="_monitor"):
    """A program returning the seconds from ``wake(entity)`` until a thread
    parked by ``park(entity)`` on the entity's monitor ``parks_on`` has
    returned; ``make`` builds the entity in the main activity."""
    def program():
        entity = make()
        child = spawn_thread(park, entity)
        _wait_until_parked(getattr(entity, parks_on))
        start = time.monotonic()
        wake(entity)
        child.join()
        return time.monotonic() - start

    return program


def _wake_seconds(mode, *wake_case):
    return Execution(mode, sink="discard").run(_wake_program(*wake_case)).outputs


def _park_until(entity, predicate):
    with entity._lock:
        watchdog_wait(entity._monitor, predicate, entity.execution)


def _increment_in_monitor(entity):
    with entity._lock:
        increment_version(entity)


def _held_lock():
    lock = RRLock()
    lock.acquire()
    return lock


def _acquire_release(lock):
    lock.acquire()
    lock.release()


def _channel_with_writer_parked_for_its_take():
    ch = Channel()
    spawn_thread(ch.write, "first")
    _wait_until_parked(ch._monitor)
    return ch


def _read_twice(ch):
    ch.read()
    ch.read()


WAKERS = {
    "increment_version": (
        ExecutionMode.RECORD, VersionedEntity,
        lambda e: _park_until(e, lambda: e.version == 1), _increment_in_monitor),
    "lock_release": (
        ExecutionMode.PASSIVE, _held_lock, _acquire_release, RRLock.release),
    "channel_rendezvous": (
        ExecutionMode.PASSIVE, Channel, Channel.read, lambda ch: ch.write("m")),
    # The writer parks on ``_monitor`` until the read takes its value.
    "channel_take": (
        ExecutionMode.PASSIVE, Channel, lambda ch: ch.write("m"), Channel.read),
    # A second writer parks on ``_claims`` while the first waits for its
    # take; the first read ends that rendezvous, which must wake the claim,
    # and the second read pairs with the second writer.
    "channel_claim": (
        ExecutionMode.PASSIVE, _channel_with_writer_parked_for_its_take,
        lambda ch: ch.write("second"), _read_twice, "_claims"),
    "promise_resolve": (
        ExecutionMode.PASSIVE, Promise,
        lambda p: _park_until(p, lambda: p.resolved), lambda p: p.resolve(1)),
}


@pytest.mark.parametrize("name", sorted(WAKERS))
def test_parked_thread_is_woken_before_its_wait_tick(name, monkeypatch):
    # With a 5 s tick, only the operation's own wake-up can end the wait
    # within a second.
    monkeypatch.setattr("cmrr.tracing.WAIT_TICK", 5.0)
    assert _wake_seconds(*WAKERS[name]) < 1.0


def test_replayed_channel_claim_is_woken_before_its_wait_tick(tmp_path, monkeypatch):
    # In replay the second writer's claim also waits for its recorded
    # version, which the take bumps; only the end of the first rendezvous
    # notifies ``_claims``.
    monkeypatch.setattr("cmrr.tracing.WAIT_TICK", 5.0)
    timed = _wake_program(*WAKERS["channel_claim"][1:])
    seconds = []

    def program():
        # The digest hashes the outputs, so keep the timing out of them.
        seconds.append(timed())

    path = str(tmp_path / "claim.trc")
    recorded = Execution(ExecutionMode.RECORD, trace_path=path).run(program)
    replayed = Execution(ExecutionMode.REPLAY, trace_path=path,
                         watchdog_seconds=10.0).run(program)
    assert seconds[-1] < 1.0
    assert replayed.digest == recorded.digest


def test_channel_waits_are_seldom_woken_in_vain(tmp_path, monkeypatch):
    # Claiming writers park on ``_claims``, apart from the first side of
    # each rendezvous on ``_monitor``, a reader awaiting its hand-off or the
    # writer awaiting its take, so completing a rendezvous wakes only
    # waiters it can release. With one shared monitor for claims too, a
    # fifth of the parked waits woke in vain.
    parked, wasted = count_wasted_wakes(monkeypatch)
    path = str(tmp_path / "csp.trc")
    func = bench.REGISTRY["philosophers-csp"].func
    shares = {}
    for mode in (ExecutionMode.PASSIVE, ExecutionMode.RECORD, ExecutionMode.REPLAY):
        parked.clear()
        wasted.clear()
        Execution(mode, trace_path=path, watchdog_seconds=10.0).run(
            func, {"philosophers": 5, "rounds": 20})
        assert len(parked) > 200, mode
        shares[mode.value] = len(wasted) / len(parked)
    assert max(shares.values()) <= 0.05, shares


def _late_writer_program(late_first):
    """The main activity writes 0, 1 and 2 to one reader; a second writer
    writes "late". Recorded with ``late_first`` false, its claim is at
    version 3; replayed with it true, that claim parks before the first
    rendezvous and stays parked through three."""
    ch = Channel()
    got = []
    go = threading.Event()

    def late():
        go.wait(5)
        ch.write("late")

    reader = spawn_process(lambda: got.extend(ch.read() for _ in range(4)))
    writer = spawn_process(late)
    if late_first:
        go.set()
    for i in range(3):
        # The claim leaves the waiter deque when woken and files itself
        # again only once it has found its predicate false, so a wake in
        # vain is seen before the next rendezvous.
        while late_first and not ch._claims._waiters:
            time.sleep(0.001)
        ch.write(i)
    go.set()
    writer.join()
    reader.join()
    return got


def test_replayed_claim_is_not_woken_before_its_version(tmp_path, monkeypatch):
    # The parked claim awaits version 3, so the ends of the rendezvous at
    # versions 1 and 2 must not wake it; the one at 3 must. With a 5 s tick
    # no tick wakes it either.
    monkeypatch.setattr("cmrr.tracing.WAIT_TICK", 5.0)
    path = str(tmp_path / "late.trc")
    recorded = Execution(ExecutionMode.RECORD, trace_path=path).run(
        _late_writer_program, False)
    assert recorded.outputs == [0, 1, 2, "late"]
    parked, wasted = count_wasted_wakes(monkeypatch)
    replayed = Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=5.0).run(
        _late_writer_program, True)
    assert replayed.digest == recorded.digest
    assert parked and wasted == []


def _after_run_end_parks(work):
    """Run ``work(ex, finished)`` as a passive program; the work it spawns
    ends in ``_finish_when_parked``. Returns the seconds from that end to
    the return of ``run``."""
    ex = Execution(ExecutionMode.PASSIVE)
    finished = []
    ex.run(lambda: work(ex, finished))
    return time.monotonic() - finished[0]


def _finish_when_parked(ex, finished):
    _wait_until_parked(ex.live_monitor)
    finished.append(time.monotonic())


RUN_END_WORK = {
    "join": lambda ex, finished: spawn_thread(_finish_when_parked, ex, finished).join(),
    "unjoined_thread": lambda ex, finished: spawn_thread(_finish_when_parked, ex, finished),
    "actor_message": lambda ex, finished: send(
        spawn_actor(lambda _: _finish_when_parked(ex, finished)), "last"),
}


@pytest.mark.parametrize("name", sorted(RUN_END_WORK))
def test_run_end_and_joins_wake_before_their_wait_tick(name, monkeypatch):
    # A join, or the run's end, is parked on the run-end monitor when the
    # last thread or actor slice finishes; with a 5 s tick only the
    # finishing decrement's wake-up can end the wait within a second.
    monkeypatch.setattr("cmrr.tracing.WAIT_TICK", 5.0)
    assert _after_run_end_parks(RUN_END_WORK[name]) < 1.0


def _assert_nobody_parked(ex):
    for act in ex.activities.values():
        if isinstance(act, ThreadActivity):
            act._thread.join(5)
            assert not act._thread.is_alive()
    monitors = [(e.entity_id, m) for e in ex.entities for m in vars(e).values()
                if isinstance(m, Monitor)]
    assert [entity_id for entity_id, m in monitors if m._waiters] == []
    # Nor may a replayed gate leave its awaited version filed.
    assert [entity_id for entity_id, m in monitors if m.due] == []
    # Nor may a channel keep a parked read that a later write could be handed.
    assert [e.entity_id for e in ex.entities if isinstance(e, Channel) and e._readers] == []
    assert not ex.live_monitor._waiters


@pytest.mark.parametrize("name,params", [
    ("philosophers-locks", {"rounds": 20}),
    ("philosophers-csp", {"rounds": 20}),
    ("philosophers-stm", {"rounds": 20}),
    ("sales-pipeline", {"records": 20}),
])
def test_no_monitor_stays_parked_after_a_run(name, params, tmp_path):
    path = str(tmp_path / "run.trc")
    func = bench.REGISTRY[name].func
    for mode in (ExecutionMode.RECORD, ExecutionMode.REPLAY):
        ex = Execution(mode, trace_path=path, watchdog_seconds=10.0)
        ex.run(func, params)
        _assert_nobody_parked(ex)


def _one_rendezvous():
    ch = Channel()
    reader = spawn_process(lambda: ch.read())
    ch.write("m")
    reader.join()


def _replay_deadlock_with_bumped(event_type, tmp_path):
    """Record one rendezvous, add one to the version of its ``event_type``
    event, and replay it into a ``ReplayDeadlock`` under a 1 s watchdog;
    returns the replaying execution."""
    path = str(tmp_path / "channel.trc")
    Execution(ExecutionMode.RECORD, trace_path=path).run(_one_rendezvous)
    bumped = []

    def bump(activity_id, events):
        for i, (t, d) in enumerate(events):
            if t == event_type:
                events[i] = TraceEvent(t, d + 1)
                bumped.append(d)
        return events

    rewrite_trace(path, bump)
    assert bumped == [0]
    ex = Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=1.0)
    start = time.monotonic()
    with pytest.raises(ReplayDeadlock):
        ex.run(_one_rendezvous)
    assert time.monotonic() - start < 4.0
    return ex


def test_no_monitor_stays_parked_after_a_replay_deadlock(tmp_path):
    # The read awaits version 1: the writer fills the slot and parks for
    # the take, the reader parks for a hand-off.
    _assert_nobody_parked(_replay_deadlock_with_bumped(EventType.CHANNEL_READ, tmp_path))


def test_no_awaited_version_stays_filed_after_a_replay_deadlock(tmp_path):
    # The write's claim awaits version 1: it parks in the gate with 1 in
    # ``_claims.due``, and the reader parks for a hand-off.
    _assert_nobody_parked(_replay_deadlock_with_bumped(EventType.CHANNEL_WRITE, tmp_path))


def test_model_waits_park_only_when_blocked_and_leave_nothing_behind(tmp_path, monkeypatch):
    """Every benchmark, under both strategies and in every mode: a model
    operation enters ``watchdog_wait`` only with its predicate false, that
    is only to park, and after the run no monitor has a parked thread or
    an awaited version left."""
    waits = note_watchdog_waits(monkeypatch)
    assert sorted(SMALL_PARAMS) == sorted(bench.REGISTRY)
    for name, params in SMALL_PARAMS.items():
        spec = bench.REGISTRY[name]
        params = {**spec.defaults, **params}
        for strategy in ("sender", "receiver"):
            path = str(tmp_path / f"{name}-{strategy}.trc")
            digests = []
            for mode in (ExecutionMode.PASSIVE, ExecutionMode.RECORD, ExecutionMode.REPLAY):
                ex = Execution(mode, strategy=strategy, trace_path=path,
                               watchdog_seconds=10.0,
                               perturb=None if mode is ExecutionMode.REPLAY
                               else PerturbationPlan(0))
                digests.append(ex.run(spec.func, params).digest)
                _assert_nobody_parked(ex)
            assert digests[1] == digests[2], (name, strategy)
    assert waits and [(m, b) for m, b, _ in waits if not b] == []


def _stuck_under_wasted_wakes(seconds, pokes):
    """Park the main activity for ever on an entity's monitor while a plain
    thread notifies that monitor every 2 ms, which moves no progress."""
    entity = VersionedEntity()
    stop = threading.Event()

    def poke():
        while not stop.is_set():
            with entity._lock:
                entity._monitor.notify_all()
            pokes.append(1)
            time.sleep(0.002)

    poker = threading.Thread(target=poke)
    poker.start()
    start = time.monotonic()
    try:
        with entity._lock:
            watchdog_wait(entity._monitor, lambda: False, entity.execution)
    finally:
        seconds.append(time.monotonic() - start)
        stop.set()
        poker.join(5)


def test_stuck_replay_woken_in_vain_ends_within_the_watchdog_and_two_ticks(tmp_path):
    path = str(tmp_path / "empty.trc")
    Execution(ExecutionMode.RECORD, trace_path=path).run(lambda: None)
    seconds, pokes = [], []
    with pytest.raises(ReplayDeadlock):
        Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=0.5).run(
            _stuck_under_wasted_wakes, seconds, pokes)
    assert len(pokes) > 50
    assert 0.5 <= seconds[0] < 0.5 + 2 * WAIT_TICK + 0.1, seconds
