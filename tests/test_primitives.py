"""The three framework primitives and the per-activity buffers/queues."""

import threading
import time

import pytest
from conftest import patch_bindings, rewrite_trace

from cmrr import (
    Channel,
    EventType,
    Execution,
    ExecutionMode,
    MemorySink,
    TraceEvent,
    VersionedEntity,
    bench,
    current_activity,
    decode_event,
    delay_interaction,
    encode_event,
    increment_version,
    parse_trace,
    record_interaction,
    send,
    spawn_actor,
    spawn_process,
    tracing,
)
from cmrr.errors import (
    NotAnActivity,
    ReplayDeadlock,
    ReplayQueueExhausted,
    ReplayTypeMismatch,
    TraceFormatError,
)
from cmrr.tracefile import write_trace
from cmrr.tracing import RecordBuffer, ReplayQueue


def _record_ex():
    return Execution(ExecutionMode.RECORD, sink=MemorySink())


def _replay_ex(tmp_path, events, extra=()):
    """Build a replay execution whose main activity (id 0) holds ``events``."""
    path = str(tmp_path / "synthetic.trc")
    payload = b"".join(encode_event(e) for e in events)
    chunks = [(0, payload)] + list(extra)
    write_trace(path, 0, chunks)
    return Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=1.0)


def test_record_interaction_appends_nine_octets():
    ex = _record_ex()

    def program():
        act = current_activity()
        record_interaction(act, EventType.LOCK, 0)
        raw = act.buffer.snapshot()
        assert raw == bytes([0x01, 0, 0, 0, 0, 0, 0, 0, 0])
        record_interaction(act, EventType.LOCK, 1)
        record_interaction(act, EventType.LOCK, 2)
        raw = act.buffer.snapshot()
        assert len(raw) == 27
        decoded = [decode_event(raw[i:i + 9]) for i in range(9, 27, 9)]
        assert decoded == [TraceEvent(EventType.LOCK, 1), TraceEvent(EventType.LOCK, 2)]

    ex.run(program)


def test_record_interaction_noop_when_passive():
    ex = Execution(ExecutionMode.PASSIVE)

    def program():
        act = current_activity()
        assert act.buffer is None
        record_interaction(act, EventType.LOCK, 0)  # must not touch anything

    ex.run(program)


def test_record_interaction_consumes_matching_head_in_replay(tmp_path):
    ex = _replay_ex(tmp_path, [TraceEvent(EventType.LOCK, 3)])

    def program():
        act = current_activity()
        entity = VersionedEntity()
        before = ex.progress
        record_interaction(act, EventType.LOCK, 3, entity=entity)
        assert act.replay_queue.consumed == 1
        assert entity.log_entries() == [(0, EventType.LOCK, 3)]
        assert ex.progress == before + 1

    ex.run(program)


def test_record_interaction_reports_data_mismatch_in_replay(tmp_path):
    ex = _replay_ex(tmp_path, [TraceEvent(EventType.AWAIT_SIGNALED, 3)])

    def program():
        entity = VersionedEntity()
        record_interaction(current_activity(), EventType.AWAIT_SIGNALED, 2, entity=entity)

    with pytest.raises(ReplayTypeMismatch) as info:
        ex.run(program)
    assert str(info.value) == ("activity 0: AWAIT_SIGNALED(data=2) on entity (0, 0), "
                               "trace holds AWAIT_SIGNALED(data=3)")


def test_record_interaction_reports_exhausted_trace_in_replay(tmp_path):
    ex = _replay_ex(tmp_path, [TraceEvent(EventType.TX_COMMIT, 0)])

    def program():
        act = current_activity()
        record_interaction(act, EventType.TX_COMMIT, 0)
        record_interaction(act, EventType.TX_COMMIT, 1)

    with pytest.raises(ReplayQueueExhausted,
                       match=r"^activity 0: expected TX_COMMIT, trace is exhausted$"):
        ex.run(program)


def test_increment_version_by_mode():
    def bump_thrice():
        entity = VersionedEntity()
        results = [increment_version(entity) for _ in range(3)]
        return {"results": results, "final": entity.version}

    ex = _record_ex()
    out = ex.run(bump_thrice).outputs
    assert out == {"results": [1, 2, 3], "final": 3}

    ex = Execution(ExecutionMode.PASSIVE)

    def passive_program():
        entity = VersionedEntity()
        entity.version = 5
        assert increment_version(entity) == 5
        return entity.version

    assert ex.run(passive_program).outputs == 5


def test_delay_interaction_returns_immediately_on_match(tmp_path):
    ex = _replay_ex(tmp_path, [TraceEvent(EventType.LOCK, 3)])

    def program():
        entity = VersionedEntity()
        entity.version = 3
        version = delay_interaction(current_activity(), entity, EventType.LOCK)
        assert version == 3
        assert len(current_activity().replay_queue) == 0

    ex.run(program)


def test_delay_interaction_unblocks_on_cross_activity_increment(tmp_path):
    from cmrr import spawn_thread

    ex = _replay_ex(
        tmp_path,
        [TraceEvent(EventType.ACTIVITY_SPAWN, 15), TraceEvent(EventType.LOCK, 1)],
    )

    def program():
        entity = VersionedEntity()
        timeline = []

        def incrementer():
            time.sleep(0.05)
            timeline.append("increment")
            with entity._lock:
                increment_version(entity)

        child = spawn_thread(incrementer)
        with entity._lock:
            version = delay_interaction(current_activity(), entity, EventType.LOCK)
        timeline.append("unblocked")
        child.join()
        assert version == 1
        assert timeline == ["increment", "unblocked"]

    ex.run(program)


def test_delay_interaction_waits_for_version_and_ready(tmp_path):
    from cmrr import spawn_thread

    ex = _replay_ex(
        tmp_path,
        [TraceEvent(EventType.ACTIVITY_SPAWN, 15), TraceEvent(EventType.LOCK, 1)],
    )

    def program():
        entity = VersionedEntity()
        state = {"ready": False}
        timeline = []

        def helper():
            time.sleep(0.05)
            timeline.append("increment")
            with entity._lock:
                increment_version(entity)
            time.sleep(0.05)
            with entity._monitor:
                timeline.append("ready")
                state["ready"] = True
                entity._monitor.notify_all()

        child = spawn_thread(helper)
        with entity._monitor:
            version = delay_interaction(current_activity(), entity, EventType.LOCK,
                                        lambda: state["ready"])
            timeline.append("unblocked")
        child.join()
        assert version == 1
        assert timeline == ["increment", "ready", "unblocked"]
        assert entity.log_entries() == [(0, EventType.LOCK, 1)]

    ex.run(program)


def test_delay_interaction_type_mismatch(tmp_path):
    ex = _replay_ex(tmp_path, [TraceEvent(EventType.CHANNEL_READ, 0)])

    def program():
        delay_interaction(current_activity(), VersionedEntity(), EventType.LOCK)

    with pytest.raises(ReplayTypeMismatch):
        ex.run(program)


def test_delay_interaction_records_current_version_outside_replay():
    """Outside replay the gate records the entity's current version (a
    no-op when passive), returns None and leaves the version alone."""

    def program():
        act = current_activity()
        entity = VersionedEntity()
        entity.version = 2
        with entity._lock:
            assert delay_interaction(act, entity, EventType.LOCK) is None
        buffered = act.buffer.snapshot() if act.buffer is not None else None
        return buffered, entity.log_entries(), entity.version

    recorded = _record_ex().run(program).outputs
    assert recorded == (encode_event(TraceEvent(EventType.LOCK, 2)),
                        [(0, EventType.LOCK, 2)], 2)
    assert Execution(ExecutionMode.PASSIVE).run(program).outputs == (None, [], 2)


def test_watchdog_raises_replay_deadlock(tmp_path):
    ex = _replay_ex(tmp_path, [TraceEvent(EventType.LOCK, 5)])

    def program():
        entity = VersionedEntity()
        with entity._lock:
            delay_interaction(current_activity(), entity, EventType.LOCK)

    start = time.monotonic()
    with pytest.raises(ReplayDeadlock):
        ex.run(program)
    assert time.monotonic() - start < 5.0


def test_channel_replay_with_bumped_version_deadlocks(tmp_path):
    def program():
        ch = Channel()
        reader = spawn_process(lambda: ch.read())
        ch.write("m")
        reader.join()
        return reader.id

    path = str(tmp_path / "channel.trc")
    reader_id = Execution(ExecutionMode.RECORD, trace_path=path).run(program).outputs

    def bump_the_read(activity_id, events):
        if activity_id != reader_id:
            return events
        assert events == [TraceEvent(EventType.CHANNEL_READ, 0)]
        return [TraceEvent(EventType.CHANNEL_READ, 1)]

    rewrite_trace(path, bump_the_read)
    ex = Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=3.0)
    start = time.monotonic()
    with pytest.raises(ReplayDeadlock):
        ex.run(program)
    assert time.monotonic() - start < 6.0


def test_record_buffer_flush_threshold(monkeypatch):
    monkeypatch.setattr(tracing, "FLUSH_THRESHOLD", 45)
    chunks = []

    class Sink:
        def submit(self, activity_id, payload):
            chunks.append((activity_id, payload))

    buffer = RecordBuffer(9, Sink())
    for i in range(6):
        buffer.put(EventType.LOCK, i)
    assert len(chunks) == 1
    assert chunks[0][0] == 9
    assert len(chunks[0][1]) == 45
    assert len(buffer) == 9
    buffer.flush()
    assert len(chunks) == 2


@pytest.mark.parametrize("event_type, data, problem", [
    (EventType.LOCK, 2**64, "event data 18446744073709551616 outside u64 range"),
    (EventType.LOCK, -1, "event data -1 outside u64 range"),
    (EventType.LOCK, None, "event data None is not an integer"),
    (EventType.LOCK, "7", "event data '7' is not an integer"),
    (13, 7, "unregistered event tag 13"),
    ("7", 7, "unregistered event tag '7'"),
], ids=["data-2**64", "data-minus-1", "data-None", "data-str", "tag-13", "tag-str"])
def test_bad_event_fails_its_flush_and_no_part_of_its_chunk_is_written(
        trace_path, monkeypatch, event_type, data, problem):
    # chunks of five events: 0-4 flush whole, 5-9 hold the bad event 7
    monkeypatch.setattr(tracing, "FLUSH_THRESHOLD", 45)

    def program():
        act = current_activity()
        for i in range(7):
            record_interaction(act, EventType.LOCK, i)
        record_interaction(act, event_type, data)
        for i in range(8, 10):
            record_interaction(act, EventType.LOCK, i)
        raise AssertionError("the flush at event 9 did not raise")

    ex = Execution(ExecutionMode.RECORD, trace_path=trace_path)
    with pytest.raises(TraceFormatError) as info:
        ex.run(program)
    assert str(info.value) == f"activity 0: cannot record event 7, ({event_type}, {data!r}): {problem}"
    trace = parse_trace(trace_path)
    assert list(trace.queues[0].events) == [TraceEvent(EventType.LOCK, i) for i in range(5)]


def test_bad_event_in_actor_handler_fails_the_run(trace_path, monkeypatch):
    # every put flushes, so the bad event raises inside the handler, which
    # must not keep it as a handler error
    monkeypatch.setattr(tracing, "FLUSH_THRESHOLD", 9)

    def program():
        actor = spawn_actor(lambda msg: record_interaction(current_activity(), 0, msg))
        send(actor, 5)

    ex = Execution(ExecutionMode.RECORD, trace_path=trace_path)
    with pytest.raises(TraceFormatError, match=r"^activity \d+: cannot record event 0, "
                                               r"\(0, 5\): unregistered event tag 0$"):
        ex.run(program)
    actor_id, = (aid for aid in ex.activities if aid)
    assert actor_id not in parse_trace(trace_path).queues


def test_bad_event_flushed_at_run_end_leaves_other_activities_flushed(trace_path):
    def program():
        actor = spawn_actor(lambda msg: record_interaction(current_activity(),
                                                           EventType.LOCK, msg))
        send(actor, 3)
        record_interaction(current_activity(), EventType.LOCK, 1.5)

    ex = Execution(ExecutionMode.RECORD, trace_path=trace_path)
    with pytest.raises(TraceFormatError, match=r"^activity 0: cannot record event 2, "
                                               r"\(1, 1\.5\): "):
        ex.run(program)
    trace = parse_trace(trace_path)
    assert 0 not in trace.queues
    actor_id, = trace.queues
    assert list(trace.queues[actor_id].events) == [TraceEvent(EventType.LOCK, 3)]


def test_non_integer_data_word_fails_the_run_and_other_activities_still_flush(trace_path):
    # The bad event is main's first; under the receiver strategy the actor
    # records each message it takes, and those five events must reach the
    # trace although main's final flush fails first.
    def program():
        actor = spawn_actor(lambda msg: None)
        for i in range(5):
            send(actor, i)
        record_interaction(current_activity(), EventType.LOCK, None)

    ex = Execution(ExecutionMode.RECORD, strategy="receiver", trace_path=trace_path)
    with pytest.raises(TraceFormatError, match=r"^activity 0: cannot record event \d+, "
                                               r"\(1, None\): event data None is not an integer$"):
        ex.run(program)
    trace = parse_trace(trace_path)
    assert 0 not in trace.queues
    actor_id, = trace.queues
    assert len(trace.queues[actor_id]) == 5


def _queue(owner_id, events):
    return ReplayQueue(owner_id, bytes(t for t, _ in events), [d for _, d in events])


def test_replay_queue_cursor_and_expect():
    events = [TraceEvent(EventType.LOCK, v) for v in range(3)]
    queue = _queue(1, events)
    assert queue.peek() == events[0]
    queue.advance()
    assert queue.peek() == events[1]
    assert queue.consumed == 1
    assert list(queue) == events  # every pair, without consuming
    assert queue.consumed == 1
    queue.advance()
    queue.advance()
    assert queue.peek() is None
    with pytest.raises(ReplayQueueExhausted):
        queue.expect(EventType.LOCK)

    mixed = _queue(7, [TraceEvent(EventType.LOCK, 0), TraceEvent(EventType.MSG_SEND, 4),
                       TraceEvent(EventType.TX_COMMIT, 2)])
    either = (EventType.MSG_SEND, EventType.LOCK)
    assert mixed.expect(*either) == 0  # the head's data word
    mixed.advance()
    assert mixed.expect(*either) == 4
    mixed.advance()
    with pytest.raises(ReplayTypeMismatch, match=r"^activity 7: expected MSG_SEND or LOCK, "
                                                 r"trace holds TX_COMMIT\(data=2\)$"):
        mixed.expect(*either)
    assert mixed.consumed == 2
    mixed.advance()
    with pytest.raises(ReplayQueueExhausted, match=r"^activity 7: expected MSG_SEND or LOCK, "
                                                   r"trace is exhausted$"):
        mixed.expect(*either)


def test_current_activity_outside_runtime():
    with pytest.raises(NotAnActivity):
        current_activity()


# Small parameters for every registered benchmark.
SMALL_PARAMS = {
    "philosophers-locks": {"rounds": 20},
    "philosophers-stm": {"rounds": 20},
    "philosophers-csp": {"rounds": 20},
    "pingpong-actors": {"rounds": 40},
    "counting-actors": {"count": 60},
    "fj-creation-actors": {"fanout": 3, "depth": 2},
    "sales-pipeline": {"records": 12, "projects": 2},
}


class _OwnedLock:
    """A plain lock that remembers the ident of the thread holding it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.owner = None

    def acquire(self, blocking=True, timeout=-1):
        if not self._lock.acquire(blocking, timeout):
            return False
        self.owner = threading.get_ident()
        return True

    def release(self):
        self.owner = None
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc_info):
        self.release()


def test_substrate_is_called_with_the_entity_monitor_held(tmp_path, monkeypatch):
    """``increment_version`` and ``delay_interaction`` do not enter the
    entity monitor themselves: every model call site must hold it. A call
    without it races silently unless someone is parked, so check at each
    call of every benchmark, recorded and replayed, that the calling thread
    holds the entity lock. Every entity's lock, and each monitor over it,
    is built over an ``_OwnedLock`` for this."""
    from cmrr import tracing

    called, unheld = set(), []
    entity_init = VersionedEntity.__init__

    def owned_lock_init(self, *args):
        entity_init(self, *args)
        self._lock = _OwnedLock()  # a channel's ``_claims`` is built after this
        self._monitor = tracing.Monitor(self._lock)

    def held(fn, entity_arg):
        def checked(*args):
            entity = args[entity_arg]
            called.add(fn.__name__)
            if entity._lock.owner != threading.get_ident():
                unheld.append((fn.__name__, entity.kind))
            return fn(*args)
        return checked

    monkeypatch.setattr(VersionedEntity, "__init__", owned_lock_init)
    patch_bindings(monkeypatch, tracing.increment_version, held(tracing.increment_version, 0))
    patch_bindings(monkeypatch, tracing.delay_interaction, held(tracing.delay_interaction, 1))
    assert sorted(SMALL_PARAMS) == sorted(bench.REGISTRY)
    for name, params in SMALL_PARAMS.items():
        for strategy in ("sender", "receiver"):
            path = str(tmp_path / f"{name}-{strategy}.trc")
            recorded = bench.run_benchmark(name, "record", strategy=strategy,
                                           trace_path=path, params=params, seed=0)
            replayed = bench.run_benchmark(name, "replay", trace_path=path,
                                           params=params, watchdog_seconds=5)
            assert replayed.digest == recorded.digest, (name, strategy)
    assert unheld == []
    assert called == {"increment_version", "delay_interaction"}
