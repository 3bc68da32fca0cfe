"""Actor mailbox ordering, promises, and both recording strategies."""

import os
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmrr import (
    ActorStrategy,
    EventType,
    Execution,
    ExecutionMode,
    Message,
    PerturbationPlan,
    Promise,
    RRLock,
    TraceEvent,
    current_activity,
    encode_event,
    parse_trace,
    record_interaction,
    send,
    spawn_actor,
    spawn_thread,
)
from cmrr.activities import child_activity_id
from cmrr.actors import ActorActivity
from cmrr.bench.actor_suite import counting
from cmrr.bench.support import CompletionLatch
from cmrr.errors import (
    AlreadyResolved,
    ReplayDeadlock,
    ReplayQueueExhausted,
    ReplayTypeMismatch,
    UsageError,
)
from cmrr.tracefile import strategy_to_flags, write_trace
from conftest import passive_run, patch_bindings, record_run, replay_run, rewrite_trace


def _counts(trace, activity_id):
    return Counter(e.event_type for e in trace.queues[activity_id].events)


def _total_counts(trace):
    total = Counter()
    for queue in trace.queues.values():
        total.update(e.event_type for e in queue.events)
    return total


# -- sender-side version semantics -------------------------------------------


def test_sender_records_consecutive_mailbox_versions(trace_path):
    def program():
        latch = CompletionLatch(3)

        def handler(msg):
            latch.count_down()

        actor = spawn_actor(handler)
        for i in range(3):
            send(actor, i)
        latch.wait()
        return actor.mailbox_entity.version

    ex, result = record_run(program, trace_path)
    assert result.outputs == 3
    events = [e for e in parse_trace(trace_path).queues[0].events
              if e.event_type == EventType.MSG_SEND]
    assert [e.data for e in events] == [0, 1, 2]


def _two_senders_program(delays):
    """Two threads race three sends into one mailbox; handler logs payloads."""
    latch = CompletionLatch(3)
    processed = []

    def handler(msg):
        processed.append(msg)
        latch.count_down()

    actor = spawn_actor(handler)

    def sender_one(delay):
        time.sleep(delay)
        send(actor, "one")

    def sender_two(delay):
        time.sleep(delay)
        send(actor, "two-a")
        send(actor, "two-b")

    t1 = spawn_thread(sender_one, delays[0])
    t2 = spawn_thread(sender_two, delays[1])
    t1.join()
    t2.join()
    latch.wait()
    return {"processed": processed}


def test_replay_processes_in_version_order_despite_arrival_inversion(trace_path):
    ex, recorded = record_run(_two_senders_program, trace_path, (0.05, 0.0))
    assert recorded.outputs["processed"] == ["two-a", "two-b", "one"]
    # invert arrival: sender_one now fires first, its message carries the
    # highest version, so the mailbox must hold it back
    for _ in range(10):
        ex2, replayed = replay_run(_two_senders_program, trace_path, (0.0, 0.05))
        assert replayed.outputs["processed"] == ["two-a", "two-b", "one"]
        assert replayed.digest == recorded.digest


def test_pingpong_message_event_counts(trace_path):
    from cmrr.bench.actor_suite import pingpong

    rounds = 25
    ex, result = record_run(pingpong, trace_path, {"rounds": rounds})
    trace = parse_trace(trace_path)
    by_name = {act.name: act.id for act in ex.activities.values()}
    assert _counts(trace, by_name["ping"])[EventType.MSG_SEND] == rounds + 1
    assert _counts(trace, by_name["pong"])[EventType.MSG_SEND] == rounds + 1
    assert _counts(trace, 0)[EventType.MSG_SEND] == 1


# -- promises -----------------------------------------------------------------


def _promise_race_program(delays):
    """Two stores race a resolve; the owner actor logs arrivals."""
    latch = CompletionLatch(2)
    arrived = []

    def owner_handler(msg):
        arrived.append(msg)
        latch.count_down()

    owner = spawn_actor(owner_handler, name="owner")
    promise = Promise()

    def storer(delay):
        time.sleep(delay)
        promise.send("stored-a")
        promise.send("stored-b")

    def resolver(delay):
        time.sleep(delay)
        promise.resolve(owner)

    s = spawn_thread(storer, delays[0])
    r = spawn_thread(resolver, delays[1])
    s.join()
    r.join()
    latch.wait()
    return {"arrived": arrived}


def test_promise_store_resolve_order_replayed(trace_path):
    ex, recorded = record_run(_promise_race_program, trace_path, (0.0, 0.05))
    assert recorded.outputs["arrived"] == ["stored-a", "stored-b"]
    promise_logs = [e.log_entries() for e in ex.entities if e.kind == "promise"]
    # store, store, resolve at promise versions 0,1,2
    assert [entry[1:] for entry in promise_logs[0]] == [
        (EventType.PROMISE_MSG_STORE, 0),
        (EventType.PROMISE_MSG_STORE, 1),
        (EventType.PROMISE_RESOLVE, 2),
    ]
    # replay with the resolver arriving first: stores must still win
    for _ in range(10):
        ex2, replayed = replay_run(_promise_race_program, trace_path, (0.05, 0.0))
        assert replayed.outputs["arrived"] == ["stored-a", "stored-b"]
        assert replayed.digest == recorded.digest


def test_promise_send_after_resolve_is_direct_send(trace_path):
    def program():
        latch = CompletionLatch(1)
        arrived = []

        def owner_handler(msg):
            arrived.append(msg)
            latch.count_down()

        owner = spawn_actor(owner_handler)
        promise = Promise()
        promise.resolve(owner)
        promise.send("late")
        latch.wait()
        return {"arrived": arrived}

    ex, result = record_run(program, trace_path)
    assert result.outputs == {"arrived": ["late"]}
    counts = _total_counts(parse_trace(trace_path))
    assert counts[EventType.PROMISE_RESOLVE] == 1
    assert EventType.PROMISE_MSG_STORE not in counts
    assert counts[EventType.MSG_SEND] == 1
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.digest == result.digest


def test_double_resolve_raises():
    def program():
        promise = Promise()
        promise.resolve(1)
        promise.resolve(2)

    with pytest.raises(AlreadyResolved):
        passive_run(program)


def test_promise_value_before_resolution_raises():
    def program():
        promise = Promise()
        with pytest.raises(UsageError, match="^promise not resolved yet$"):
            promise.value
        promise.resolve(3)
        return promise.value

    assert passive_run(program)[1].outputs == 3


def test_promise_holding_a_send_resolved_to_a_non_actor_raises():
    def program():
        promise = Promise()
        promise.send("early")
        promise.resolve(42)

    with pytest.raises(UsageError, match="resolved to a non-actor value$"):
        passive_run(program)


def test_callbacks_require_actor_context():
    def program():
        Promise().when_resolved(lambda v: None)

    with pytest.raises(UsageError):
        passive_run(program)


# -- receiver-side strategy -----------------------------------------------------


def test_receiver_side_records_sender_identity(trace_path):
    def program():
        latch = CompletionLatch(1)

        def handler(msg):
            latch.count_down()

        actor = spawn_actor(handler)
        send(actor, "hello")
        latch.wait()
        return actor.id

    ex, result = record_run(program, trace_path, strategy=ActorStrategy.RECEIVER_SIDE)
    actor_id = result.outputs
    trace = parse_trace(trace_path)
    receive_events = [e for e in trace.queues[actor_id].events
                      if e.event_type in (EventType.MSG_RCVD, EventType.PROMMSG_RCVD)]
    assert [(e.event_type, e.data) for e in receive_events] == [
        (EventType.MSG_RCVD, 0)  # sender was the main activity, id 0
    ]
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.digest == result.digest


def test_receiver_side_promise_message_uses_two_events(trace_path):
    def program():
        latch = CompletionLatch(1)
        got = []

        def owner_handler(msg):
            got.append(msg)
            latch.count_down()

        owner = spawn_actor(owner_handler)
        promise = Promise()
        promise.send("payload")      # promise message id 0 from main
        promise.resolve(owner)
        latch.wait()
        return {"owner": owner.id, "got": got}

    ex, result = record_run(program, trace_path, strategy=ActorStrategy.RECEIVER_SIDE)
    owner_id = result.outputs["owner"]
    trace = parse_trace(trace_path)
    receive_events = [e for e in trace.queues[owner_id].events
                      if e.event_type in (EventType.MSG_RCVD, EventType.PROMMSG_RCVD)]
    assert [(e.event_type, e.data) for e in receive_events] == [
        (EventType.PROMMSG_RCVD, 0),
        (EventType.MSG_RCVD, 0),
    ]
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.outputs == result.outputs
    assert replayed.digest == result.digest


def _cross_sender_program(delays):
    """Receiver-side replay must hold back an early message from the
    wrong sender until the recorded one arrives."""
    latch = CompletionLatch(2)
    processed = []

    def handler(msg):
        processed.append(msg)
        latch.count_down()

    actor = spawn_actor(handler)

    def sender(tag, delay):
        time.sleep(delay)
        send(actor, tag)

    t1 = spawn_thread(sender, "fast", delays[0])
    t2 = spawn_thread(sender, "slow", delays[1])
    t1.join()
    t2.join()
    latch.wait()
    return {"processed": processed}


def test_receiver_side_scan_waits_for_recorded_sender(trace_path):
    ex, recorded = record_run(_cross_sender_program, trace_path, (0.05, 0.0),
                              strategy=ActorStrategy.RECEIVER_SIDE)
    assert recorded.outputs["processed"] == ["slow", "fast"]
    for _ in range(10):
        ex2, replayed = replay_run(_cross_sender_program, trace_path, (0.0, 0.05))
        assert replayed.outputs["processed"] == ["slow", "fast"]
        assert replayed.digest == recorded.digest


def test_receiver_trace_receive_count_arithmetic(tmp_path):
    """Receive events = processed messages + promise messages."""
    from cmrr import bench

    path = str(tmp_path / "counting.trc")
    result = bench.run_benchmark("counting-actors", "record", strategy="receiver",
                                 trace_path=path, params={"count": 25})
    trace = parse_trace(path)
    totals = _total_counts(trace)
    processed = sum(len(log) for log in result.actor_logs.values())
    assert totals[EventType.MSG_RCVD] == processed
    assert (totals[EventType.MSG_RCVD] + totals[EventType.PROMMSG_RCVD]
            == processed + totals[EventType.PROMMSG_RCVD])
    # this benchmark has exactly one promise message: the resolved-value callback
    assert totals[EventType.PROMMSG_RCVD] == 1


@pytest.mark.parametrize("strategy, error, match", [
    # The producer's 52nd send meets the trace's promise event, or the end
    # of the trace when the recording forwarded the callback.
    ("sender", (ReplayTypeMismatch, ReplayQueueExhausted), "activity"),
    # The counter (activity 15) takes its 51 recorded messages, then meets
    # pending mail with its trace exhausted.
    ("receiver", ReplayQueueExhausted, r"^activity 15: .*trace is exhausted"),
], ids=["sender", "receiver"])
def test_replay_divergence_in_handler_aborts_the_run(tmp_path, strategy, error, match):
    """Sends beyond the recorded ones fail the replay at once, naming the
    activity whose trace ran out, instead of being reported to the actor's
    error hook or waiting for the watchdog."""
    from cmrr import bench

    path = str(tmp_path / "counting.trc")
    bench.run_benchmark("counting-actors", "record", strategy=strategy,
                        trace_path=path, params={"count": 50})
    start = time.monotonic()
    with pytest.raises(error, match=match):
        bench.run_benchmark("counting-actors", "replay", trace_path=path,
                            params={"count": 60}, watchdog_seconds=3)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("strategy, rewritten, after", [
    (ActorStrategy.SENDER_SIDE, EventType.PROMISE_MSG_STORE, None),
    (ActorStrategy.RECEIVER_SIDE, EventType.MSG_RCVD, None),
    (ActorStrategy.RECEIVER_SIDE, EventType.MSG_RCVD, EventType.PROMMSG_RCVD),
], ids=["sender", "receiver", "receiver-after-promise"])
def test_replay_with_wrong_head_names_the_activity(trace_path, strategy, rewritten, after):
    """A promise operation (sender strategy), a receive (receiver
    strategy) or the sender receive that follows a promise receive's
    ``PROMMSG_RCVD``, that meets another event type, fails the replay at
    once, naming the activity whose trace it read. ``after`` restricts the
    rewrite to an event that follows one of that type."""
    def program():
        latch = CompletionLatch(2)
        owner = spawn_actor(lambda msg: latch.count_down())
        send(owner, "direct")
        promise = Promise()
        promise.send("stored")
        promise.resolve(owner)
        latch.wait()

    record_run(program, trace_path, strategy=strategy)
    rewritten_ids = []

    def edit(activity_id, events):
        index = next((i for i, e in enumerate(events) if e.event_type == rewritten
                      and (after is None or i > 0 and events[i - 1].event_type == after)), None)
        if not rewritten_ids and index is not None:
            rewritten_ids.append(activity_id)
            events[index] = TraceEvent(EventType.LOCK, events[index].data)
        return events

    rewrite_trace(trace_path, edit)
    start = time.monotonic()
    with pytest.raises(ReplayTypeMismatch,
                       match=rf"^activity {rewritten_ids[0]}: expected .*, trace holds LOCK"):
        replay_run(program, trace_path, watchdog=3.0)
    assert time.monotonic() - start < 1.0


def _late_mail_program():
    """An actor receives ``m0`` from main, then ``t0`` from a thread that
    sends it under a lock, then ``m1``, which main sends after 0.1 s."""
    processed = []
    actor = spawn_actor(processed.append)
    send(actor, "m0")
    lock = RRLock()

    def locked_sender():
        with lock:
            send(actor, "t0")

    spawn_thread(locked_sender)
    time.sleep(0.1)
    send(actor, "m1")
    return processed


def test_pending_mail_under_a_head_that_names_no_receive_fails_at_once(trace_path):
    """Receiver-side replay whose actor trace holds an event its handler
    never reaches, where the next receive should be, fails as soon as a
    slice ends with mail pending, naming the actor. The thread whose
    message the actor awaits never sends it (its lock version is bumped
    out of reach), so without that check the run would end only in the
    watchdog."""
    for _ in range(5):  # the thread's send must beat main's 0.1 s sleep
        _, recorded = record_run(_late_mail_program, trace_path,
                                 strategy=ActorStrategy.RECEIVER_SIDE)
        if recorded.outputs == ["m0", "t0", "m1"]:
            break
    assert recorded.outputs == ["m0", "t0", "m1"]
    actor_ids = []

    def edit(activity_id, events):
        types = [e.event_type for e in events]
        if EventType.MSG_RCVD in types:
            actor_ids.append(activity_id)
            events.insert(types.index(EventType.MSG_RCVD) + 1, TraceEvent(EventType.LOCK, 0))
        elif EventType.LOCK in types:
            index = types.index(EventType.LOCK)
            events[index] = TraceEvent(EventType.LOCK, events[index].data + 1)
        return events

    rewrite_trace(trace_path, edit)
    start = time.monotonic()
    with pytest.raises(ReplayTypeMismatch,
                       match=rf"^activity {actor_ids[0]}: expected MSG_RCVD or PROMMSG_RCVD, "
                             r"trace holds LOCK"):
        replay_run(_late_mail_program, trace_path, watchdog=3.0)
    assert time.monotonic() - start < 1.0


_OTHER_EVENTS = st.tuples(st.sampled_from([EventType.LOCK, EventType.CHANNEL_READ,
                                           EventType.TX_COMMIT, EventType.ACTIVITY_SPAWN]),
                          st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       messages=st.lists(st.tuples(st.integers(1, 3), st.booleans(),
                                   st.lists(_OTHER_EVENTS, max_size=2)),
                         min_size=1, max_size=12),
       unnamed=st.none() | st.tuples(st.integers(1, 4), st.booleans()))
def test_receiver_replay_takes_mail_in_recorded_receive_order(tmp_path_factory, data,
                                                              messages, unnamed):
    """Receiver-side replay files each message under the place of the
    receive that names it. Recorded receives of plain and promise messages
    from several senders, with the handlers' own events in between, are
    taken in recorded order whatever order the messages arrive in; one
    sender's plain messages arrive in program order. A message that no
    recorded receive names lands after them all, where the trace is
    exhausted."""
    actor_id = child_activity_id(0, 0)
    promise_ids = Counter()
    keys, actor_events = [], []
    for sender, via_promise, _ in messages + ([unnamed + (None,)] if unnamed else []):
        pid = None
        if via_promise:
            pid = promise_ids[sender]
            promise_ids[sender] += 1
        keys.append((sender, pid))
    for (sender, pid), (_, _, others) in zip(keys, messages):
        if pid is not None:
            actor_events.append((EventType.PROMMSG_RCVD, pid))
        actor_events.append((EventType.MSG_RCVD, sender))
        actor_events.extend(others)
    # A random arrival order; each sender's plain messages keep theirs.
    delivery = data.draw(st.permutations(range(len(keys))))
    for sender in {sender for sender, _ in keys}:
        plain = sorted(i for i in delivery if keys[i] == (sender, None))
        slots = [n for n, i in enumerate(delivery) if keys[i] == (sender, None)]
        for n, i in zip(slots, plain):
            delivery[n] = i

    path = str(tmp_path_factory.mktemp("places") / "run.trc")
    write_trace(path, strategy_to_flags(ActorStrategy.RECEIVER_SIDE),
                [(0, encode_event(TraceEvent(EventType.ACTIVITY_SPAWN, actor_id))),
                 (actor_id, b"".join(encode_event(TraceEvent(*e)) for e in actor_events))])
    processed = []

    def program():
        def handler(index):
            processed.append(index)
            for event_type, value in messages[index][2]:
                record_interaction(current_activity(), event_type, value)

        actor = spawn_actor(handler)
        main = current_activity()
        for i in delivery:
            sender, pid = keys[i]
            actor.enqueue(Message(sender, i, i, promise_message_id=pid), main)

    ex = Execution(ExecutionMode.REPLAY, trace_path=path, pool_size=1, watchdog_seconds=5)
    if unnamed is None:
        ex.run(program)
    else:
        with pytest.raises(ReplayQueueExhausted,
                           match=rf"^activity {actor_id}: .*trace is exhausted$"):
            ex.run(program)
    assert processed == list(range(len(messages)))


@pytest.mark.parametrize("swap", [False, True], ids=["duplicate", "swap"])
def test_duplicate_recorded_send_version_fails_at_once(trace_path, swap):
    """Two sends recorded at one mailbox version, or one sender's first two
    sends to an actor recorded in swapped order, fail the replay at the
    second send, naming the sender, the target actor and the version."""
    from cmrr import bench

    params = {"count": 20}
    bench.run_benchmark("counting-actors", "record", strategy="sender",
                        trace_path=trace_path, params=params)
    # The producer's first two sends, both to the counter.
    rewritten = []

    def edit(activity_id, events):
        sends = [i for i, e in enumerate(events) if e.event_type == EventType.MSG_SEND]
        if not rewritten and len(sends) >= 2:
            first, second = (events[i].data for i in sends[:2])
            rewritten.append((activity_id, first, second))
            events[sends[1]] = TraceEvent(EventType.MSG_SEND, first)
            if swap:
                events[sends[0]] = TraceEvent(EventType.MSG_SEND, second)
        return events

    rewrite_trace(trace_path, edit)
    sender_id, first, second = rewritten[0]
    expected = (f"after its send at version {second}$" if swap
                else "which an earlier send already took$")
    start = time.monotonic()
    with pytest.raises(ReplayTypeMismatch,
                       match=rf"^activity {sender_id}: send to actor \d+ at mailbox "
                             rf"version {first}, {expected}"):
        bench.run_benchmark("counting-actors", "replay", trace_path=trace_path,
                            params=params, watchdog_seconds=3)
    assert time.monotonic() - start < 1.0


def test_mailbox_version_gap_keeps_the_run_open(trace_path):
    """A sender-side replay whose trace skips a mailbox version leaves mail
    the actor can never take. That mail keeps the actor in the run's live
    count, so the run ends in ``ReplayDeadlock`` instead of returning as if
    all work were done."""
    def program():
        actor = spawn_actor(lambda msg: None)
        send(actor, "first")
        send(actor, "second")

    record_run(program, trace_path, strategy="sender")

    def edit(activity_id, events):
        if activity_id == 0:
            sends = [i for i, e in enumerate(events) if e.event_type == EventType.MSG_SEND]
            assert [events[i].data for i in sends] == [0, 1]
            events[sends[1]] = TraceEvent(EventType.MSG_SEND, 2)
        return events

    rewrite_trace(trace_path, edit)
    start = time.monotonic()
    with pytest.raises(ReplayDeadlock):
        replay_run(program, trace_path, watchdog=1.0)
    assert time.monotonic() - start < 3.0


class _CountingLock:
    """A lock that counts how often it was entered."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entries = 0

    def acquire(self, blocking=True, timeout=-1):
        if not self._lock.acquire(blocking, timeout):
            return False
        self.entries += 1
        return True

    __enter__ = acquire

    def release(self):
        self._lock.release()

    def __exit__(self, *exc):
        self.release()


@pytest.mark.parametrize("mode", ["passive", "record", "replay"])
def test_actor_messages_stay_off_the_live_lock(tmp_path, mode):
    """The run's live count moves when an actor goes live or idle, not per
    message: 2,000 messages take the run-end lock at most 50 times, waits
    on its monitor included."""
    from cmrr import bench
    from cmrr.tracing import Monitor

    program = bench.REGISTRY["counting-actors"].func
    params = {"count": 2000}
    path = str(tmp_path / "counting.trc")
    if mode == "replay":
        Execution(ExecutionMode.RECORD, trace_path=path).run(program, params)
    ex = Execution(mode, trace_path=path)
    lock = _CountingLock()
    ex.live_lock, ex.live_monitor = lock, Monitor(lock)
    result = ex.run(program, params)
    assert result.outputs == {"sent": 2000, "total": 2000}
    assert lock.entries <= 50, lock.entries


def test_receiver_replay_batches_its_mail(tmp_path, monkeypatch):
    """Receiver-side replay keys mail by consecutive ints, as sender-side
    replay does, so its drain takes the mail present under one hold of the
    mailbox lock. With one pool worker the producer's slice sends all
    2,001 messages before the counter's slice runs, so the counter's
    mailbox lock is entered once per send, once for the whole drain and
    once as the slice ends, however the threads are scheduled."""
    from cmrr import bench
    from cmrr.actors import ActorActivity

    params = {"count": 2000}
    path = str(tmp_path / "counting.trc")
    bench.run_benchmark("counting-actors", "record", strategy="receiver",
                        trace_path=path, params=params)
    locks = {}
    original_init = ActorActivity.__init__

    def counting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        locks[self.name] = self._mailbox_lock = _CountingLock()

    monkeypatch.setattr(ActorActivity, "__init__", counting_init)
    result = bench.run_benchmark("counting-actors", "replay", trace_path=path, params=params,
                                 pool_size=1)
    assert result.outputs == {"sent": 2000, "total": 2000}
    sends = params["count"] + 1  # the counts, then the promise for the total
    assert locks["counter"].entries == sends + 2, locks["counter"].entries


def _forwarding_flood():
    """Four unjoined threads each send 200 messages over six actors;
    every message is forwarded once to another actor."""
    handled, actors = [], []

    def handler(msg):
        handled.append(msg)
        hops, n = msg
        if hops:
            send(actors[n % 6], (0, n + 1))

    actors.extend(spawn_actor(handler) for _ in range(6))

    def sender(i):
        for n in range(200):
            send(actors[(i + n) % 6], (1, n))

    for i in range(4):
        spawn_thread(sender, i)
    return handled


@pytest.mark.parametrize("strategy", ["sender", "receiver"])
def test_live_count_holds_under_racing_sends_and_slices(trace_path, strategy):
    """Stress on more pool workers than CPUs with a short switch interval:
    senders, forwarding handlers and slice ends race on the live count. A
    lost update either ends the run before all 1,600 messages are handled or
    never ends it; each run must return within 20 s with every message
    handled and the count back at 0."""
    def run(mode):
        ex = Execution(mode, strategy=strategy, trace_path=trace_path, pool_size=6,
                       watchdog_seconds=5.0)
        outcome = []
        runner = threading.Thread(target=lambda: outcome.append(ex.run(_forwarding_flood)),
                                  daemon=True)
        runner.start()
        runner.join(20)
        assert not runner.is_alive(), f"the {mode} run did not return within 20 s"
        assert len(outcome[0].outputs) == 1600 and ex.live == 0
        return outcome[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run("passive")
        recorded = run("record")
        # The handlers share one untraced list, so only each actor's own
        # order is reproduced.
        assert run("replay").actor_logs == recorded.actor_logs
    finally:
        sys.setswitchinterval(interval)


def _mailbox_race_program(sends):
    """Threads race messages into one actor: thread ``i`` sends one message
    per entry of ``sends[i]``, plainly (False) or through one promise
    (True) that the main activity resolves to the actor."""
    latch = CompletionLatch(sum(map(len, sends)))
    processed = []

    def handler(msg):
        processed.append(msg)
        latch.count_down()

    actor = spawn_actor(handler)
    promise = Promise()

    def sender(index, via_promise):
        for i, through_promise in enumerate(via_promise):
            time.sleep(0)  # let the other senders in between sends
            if through_promise:
                promise.send([index, i])
            else:
                send(actor, [index, i])

    threads = [spawn_thread(sender, index, via) for index, via in enumerate(sends)]
    promise.resolve(actor)
    for t in threads:
        t.join()
    latch.wait()
    return processed


@pytest.mark.parametrize("strategy", [ActorStrategy.SENDER_SIDE, ActorStrategy.RECEIVER_SIDE],
                         ids=["sender", "receiver"])
@settings(max_examples=25, deadline=None)
@given(sends=st.lists(st.lists(st.booleans(), min_size=1, max_size=15),
                      min_size=1, max_size=3),
       seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
def test_mailbox_replays_random_send_races(tmp_path_factory, strategy, sends, seeds):
    """Recorded under one perturbation seed and replayed under another, a
    mailbox fed by racing senders, each mixing plain and promise messages,
    reproduces its order."""
    path = str(tmp_path_factory.mktemp("mailbox") / "run.trc")
    _, recorded = record_run(_mailbox_race_program, path, sends,
                             strategy=strategy, seed=seeds[0], pool_size=1)
    _, replayed = replay_run(_mailbox_race_program, path, sends,
                             seed=seeds[1], pool_size=1)
    assert replayed.digest == recorded.digest
    assert replayed.actor_logs == recorded.actor_logs


def _racing_sends_program():
    """Three threads race ten plain sends each into one actor."""
    latch = CompletionLatch(30)
    processed = []

    def handler(msg):
        processed.append(msg)
        latch.count_down()

    actor = spawn_actor(handler)

    def sender(index):
        for i in range(10):
            send(actor, (index, i))

    threads = [spawn_thread(sender, index) for index in range(3)]
    for t in threads:
        t.join()
    latch.wait()
    return tuple(processed)


@pytest.mark.parametrize("strategy", [ActorStrategy.SENDER_SIDE, ActorStrategy.RECEIVER_SIDE],
                         ids=["sender", "receiver"])
def test_perturbation_reorders_racing_sends(strategy):
    """Every send is a perturbation point under both strategies, so
    perturbation seeds yield different processing orders of racing sends."""
    orders = set()
    for seed in range(8):
        ex = Execution(ExecutionMode.RECORD, strategy=strategy, sink="discard",
                       pool_size=1, perturb=PerturbationPlan(seed, prob=0.5))
        orders.add(ex.run(_racing_sends_program).outputs)
    assert len(orders) >= 2


_FLOOD_PROGRAMS = pytest.mark.parametrize(
    "program, args", [(_racing_sends_program, ()), (counting, ({"count": 200},))],
    ids=["racing-sends", "counting-actors"])


def _actors(ex):
    return [act for act in ex.activities.values() if isinstance(act, ActorActivity)]


@_FLOOD_PROGRAMS
def test_a_drained_batch_logs_each_message_in_version_order(trace_path, program, args):
    """The drain logs a batch's sends to the mailbox in one write: every
    mailbox still logs ``(sender, MSG_SEND, v)`` for v = 0..version-1 in
    order, the sender being the author of the message processed v-th, and
    on the flooded mailbox each v's sender is the activity whose traced
    send holds v."""
    record_ex, _ = record_run(program, trace_path, *args, strategy="sender", pool_size=1)
    replay_ex, _ = replay_run(program, trace_path, *args, pool_size=1)
    trace = parse_trace(trace_path)
    for ex in (record_ex, replay_ex):
        for actor in _actors(ex):
            entries = actor.mailbox_entity.log_entries()
            assert len(entries) == actor.mailbox_entity.version
            assert entries == [(sender, EventType.MSG_SEND, v)
                               for v, (sender, _) in enumerate(actor.processed_log)]
        # The flooded mailbox's senders send to no other actor, so each
        # send in their traces went to it.
        flood = max(_actors(ex), key=lambda actor: actor.mailbox_entity.version)
        versions = {}
        for sender, _, v in flood.mailbox_entity.log_entries():
            versions.setdefault(sender, []).append(v)
        assert versions == {sender: [data for event_type, data in trace.queues[sender]
                                     if event_type == EventType.MSG_SEND]
                            for sender in versions}


@dataclass(frozen=True)
class _CountingPlan(PerturbationPlan):
    """Counts each activity's perturbation points in ``counts``; never delays."""

    counts: Counter = field(default_factory=Counter, compare=False)

    def point_for(self, activity_id):
        counts = self.counts

        def perturb_point():
            counts[activity_id] += 1
        return perturb_point


@_FLOOD_PROGRAMS
def test_a_send_is_one_perturbation_point_in_every_mode(trace_path, program, args):
    """Every mode reaches the same perturbation points, one per send: a
    sender-side send takes its point before the mailbox lock whether or
    not it traces the send. Passive leaves the promise race untraced, so
    there the gates of a promise store or resolve are no points."""
    counts = {}
    for mode in ("passive", "record", "replay"):
        plan = _CountingPlan(0)
        Execution(mode, strategy=None if mode == "replay" else "sender",
                  trace_path=trace_path, pool_size=1, perturb=plan).run(program, *args)
        counts[mode] = plan.counts
    assert counts["replay"] == counts["record"]
    trace = parse_trace(trace_path)
    promise_gates = Counter(
        activity_id for activity_id, queue in trace.queues.items() for event_type, _ in queue
        if event_type in (EventType.PROMISE_MSG_STORE, EventType.PROMISE_RESOLVE))
    # Main may find the actors done before it waits on the latch, taking
    # fewer points than in the recording.
    del counts["passive"][0], counts["record"][0]
    assert counts["passive"] == counts["record"] - promise_gates
    for activity_id, queue in trace.queues.items():
        if {event_type for event_type, _ in queue} == {EventType.MSG_SEND}:
            assert counts["passive"][activity_id] == len(queue)


@pytest.mark.parametrize("seed", [None, 3], ids=["no-plan", "plan"])
@pytest.mark.parametrize("strategy", ["sender", "receiver"])
def test_actor_keeps_under_thirty_instance_attributes(trace_path, strategy, seed):
    """At 30 instance attributes CPython 3.11 stops sharing an instance's
    dict keys, which slows every attribute access on the actor."""
    actors = []

    def program():
        latch = CompletionLatch(1)
        actors.append(spawn_actor(lambda msg: latch.count_down()))
        send(actors[-1], "go")
        latch.wait()

    perturb = None if seed is None else PerturbationPlan(seed)
    for mode in ("passive", "record", "replay"):
        Execution(mode, strategy=strategy, trace_path=trace_path, perturb=perturb).run(program)
        assert len(vars(actors[-1])) < 30, (mode, sorted(vars(actors[-1])))


def test_a_send_looks_its_sender_up_once(monkeypatch):
    """``send``, ``Promise.send`` and ``Promise.resolve`` each look up the
    current activity once and hand it down to the actor's mailbox."""
    from cmrr import activities

    original = activities.current_activity
    lookups = []

    def counting_lookup():
        lookups.append(1)
        return original()

    def counted(operation) -> int:
        del lookups[:]
        with monkeypatch.context() as patch:
            patch_bindings(patch, original, counting_lookup)
            operation()
        return len(lookups)

    def program():
        received = []  # the handler itself looks nothing up
        actor = spawn_actor(received.append)
        stored, forwarded = Promise(), Promise()
        forwarded.resolve(actor)
        return {
            "sends": counted(lambda: [send(actor, n) for n in range(20)]),
            "stored": counted(lambda: stored.send("early")),
            "resolve": counted(lambda: stored.resolve(actor)),
            "forwarded": counted(lambda: forwarded.send("late")),
        }

    _, result = passive_run(program)
    assert result.outputs == {"sends": 20, "stored": 1, "resolve": 1, "forwarded": 1}


def _assert_aborted_run_returns(mode, program):
    """Run ``program`` in a daemon thread: it must raise its ValueError
    within 10 s and leave no pool worker alive."""
    ex = Execution(mode, sink="discard")
    outcome = []

    def run():
        try:
            ex.run(program)
        except BaseException as exc:  # noqa: BLE001
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(10)
    assert not runner.is_alive(), "the aborted run did not return within 10 s"
    assert len(outcome) == 1 and isinstance(outcome[0], ValueError)
    assert not any(t.is_alive() for t in ex.actor_pool._workers)


@pytest.mark.parametrize("mode", ["passive", "record"])
def test_abort_stops_the_pool_while_actors_keep_messaging(mode):
    """After an abort the pool stops once its running slices end, so a
    failed run returns even while two actors ping-pong for ever."""
    def program():
        actors = []

        def bounce(msg):
            send(actors[msg % 2], msg + 1)

        actors.extend([spawn_actor(bounce), spawn_actor(bounce)])
        send(actors[0], 0)
        raise ValueError("main failed")

    _assert_aborted_run_returns(mode, program)


@pytest.mark.parametrize("mode", ["passive", "record"])
def test_abort_stops_an_actor_that_keeps_messaging_itself(mode):
    """A slice takes at most the mail present at its start, so an actor
    sending to itself for ever still ends its slice and the aborted run's
    pool stops. The sleep lets the actor leave the ready deque first."""
    def program():
        box = []
        box.append(spawn_actor(lambda msg: send(box[0], msg + 1)))
        send(box[0], 0)
        time.sleep(0.2)
        raise ValueError("main failed")

    _assert_aborted_run_returns(mode, program)


def test_receiver_replay_scales_like_sender_replay(tmp_path):
    """Receiver-side replay takes each message by its key instead of
    scanning the backlog, so on 20,000 messages its median replay time stays
    within 2x of sender-side replay's. The test process is pinned to one CPU
    and the two strategies alternate, so a change in machine load or speed
    falls on both."""
    from cmrr import bench

    params = {"count": 20000}
    paths = {strategy: str(tmp_path / f"{strategy}.trc")
             for strategy in ("sender", "receiver")}
    times = {strategy: [] for strategy in paths}
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        for strategy, path in paths.items():
            bench.run_benchmark("counting-actors", "record", strategy=strategy,
                                trace_path=path, params=params)
        for _ in range(5):
            for strategy, path in paths.items():
                start = time.perf_counter()
                bench.run_benchmark("counting-actors", "replay", trace_path=path,
                                    params=params)
                times[strategy].append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, affinity)
    medians = {strategy: statistics.median(t) for strategy, t in times.items()}
    assert medians["receiver"] <= 2 * medians["sender"], times


def test_same_sender_messages_keep_program_order(trace_path):
    def program():
        latch = CompletionLatch(5)
        processed = []

        def handler(msg):
            processed.append(msg)
            latch.count_down()

        actor = spawn_actor(handler)
        for i in range(5):
            send(actor, i)
        latch.wait()
        return processed

    ex, result = record_run(program, trace_path, strategy=ActorStrategy.RECEIVER_SIDE)
    assert result.outputs == list(range(5))
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.outputs == list(range(5))


# -- strategy equivalence and scheduling ---------------------------------------


@pytest.mark.parametrize("bench_name,params", [
    ("pingpong-actors", {"rounds": 30}),
    ("counting-actors", {"count": 40}),
])
def test_strategy_duality_handler_orders_match(tmp_path, bench_name, params):
    from cmrr import bench

    logs = {}
    for strategy in ("sender", "receiver"):
        path = str(tmp_path / f"{strategy}.trc")
        res = bench.run_benchmark(bench_name, "record", strategy=strategy,
                                  trace_path=path, params=params)
        rep = bench.run_benchmark(bench_name, "replay", trace_path=path,
                                  params=params, watchdog_seconds=5)
        assert rep.digest == res.digest
        assert rep.actor_logs == res.actor_logs
        logs[strategy] = res.actor_logs
    assert logs["sender"] == logs["receiver"]


def test_replay_never_blocks_the_single_pool_worker(trace_path):
    """With one worker, an actor whose next recorded message is missing
    must yield so the actor that produces it can run."""

    def program(delays):
        latch = CompletionLatch(2)
        processed = []

        def a_handler(msg):
            processed.append(msg)
            latch.count_down()

        actor_a = spawn_actor(a_handler, name="a")

        def b_handler(msg):
            time.sleep(delays[0])
            send(actor_a, "from-b")

        actor_b = spawn_actor(b_handler, name="b")
        send(actor_b, "go")

        def direct(delay):
            time.sleep(delay)
            send(actor_a, "direct")

        t = spawn_thread(direct, delays[1])
        t.join()
        latch.wait()
        return {"processed": processed}

    # record: b's message reaches a first (direct send delayed)
    ex, recorded = record_run(program, trace_path, (0.0, 0.08), pool_size=1)
    assert recorded.outputs["processed"] == ["from-b", "direct"]
    # replay: direct send arrives first; with a single worker, actor a must
    # yield instead of blocking, or actor b could never fill the gap
    for _ in range(5):
        ex2, replayed = replay_run(program, trace_path, (0.05, 0.0), pool_size=1)
        assert replayed.outputs["processed"] == ["from-b", "direct"]
        assert replayed.digest == recorded.digest


def test_handler_errors_are_kept_and_do_not_abort(trace_path):
    def program():
        latch = CompletionLatch(2)

        def handler(msg):
            try:
                if msg == "boom":
                    raise ValueError("boom")
            finally:
                latch.count_down()

        actor = spawn_actor(handler)
        send(actor, "boom")
        send(actor, "fine")
        latch.wait()
        return {"errors": len(actor.errors)}

    ex, result = record_run(program, trace_path)
    assert result.outputs == {"errors": 1}
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.outputs == result.outputs
