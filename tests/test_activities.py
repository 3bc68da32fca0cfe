"""Activity identity, spawning, and current-activity resolution."""

import random
import threading

import pytest

from cmrr import (
    ActivityKind,
    EventType,
    Execution,
    ExecutionMode,
    MemorySink,
    current_activity,
    parse_trace,
    spawn_actor,
    spawn_thread,
)
from cmrr.activities import ThreadActivity, child_activity_id
from cmrr.bench.actor_suite import fj_creation
from cmrr.errors import ReplayError, ReplayQueueExhausted, ReplayTypeMismatch, UsageError
from conftest import record_run, replay_run, rewrite_trace


def test_first_child_id_is_stable():
    first = child_activity_id(0, 0)
    again = child_activity_id(0, 0)
    assert first == again
    assert first != 0  # distinct from the root


def test_id_encoding_injective_over_random_spawn_trees():
    rng = random.Random(99)
    for _ in range(50):
        ids = {0}
        # random tree: repeatedly pick an existing node and add children
        nodes = [0]
        counters = {0: 0}  # a live spawn counter per node
        for _ in range(rng.randrange(10, 120)):
            node_id = rng.choice(nodes)
            counter = counters[node_id]
            counters[node_id] += 1
            child = child_activity_id(node_id, counter)
            assert child not in ids, "collision in spawn-path encoding"
            ids.add(child)
            nodes.append(child)
            counters[child] = 0


def test_id_encoding_overflow_detected():
    activity_id = 0
    with pytest.raises(OverflowError):
        for _ in range(40):
            activity_id = child_activity_id(activity_id, 0)


def test_negative_spawn_counter_rejected():
    with pytest.raises(ValueError, match="spawn counter must be non-negative"):
        child_activity_id(0, -1)


def test_spawn_records_one_event_per_child(trace_path):
    def program(n):
        children = [spawn_thread(lambda: None) for _ in range(n)]
        for child in children:
            child.join()
        return [c.id for c in children]

    ex, result = record_run(program, trace_path, 3)
    trace = parse_trace(trace_path)
    main_events = list(trace.queues[0].events)
    assert [e.event_type for e in main_events] == [EventType.ACTIVITY_SPAWN] * 3
    assert [e.data for e in main_events] == result.outputs

    ex2, replayed = replay_run(program, trace_path, 3)
    assert replayed.outputs == result.outputs


def test_replay_detects_extra_spawn(trace_path):
    def program(n):
        children = [spawn_thread(lambda: None) for _ in range(n)]
        for child in children:
            child.join()

    record_run(program, trace_path, 3)
    with pytest.raises(ReplayError):
        replay_run(program, trace_path, 4)


def test_replay_detects_spawn_tree_divergence(trace_path):
    def flat():
        spawn_thread(lambda: None).join()
        spawn_thread(lambda: None).join()

    def nested():
        def middle():
            spawn_thread(lambda: None).join()

        spawn_thread(middle).join()
        spawn_thread(lambda: None).join()

    record_run(flat, trace_path)
    middle_id = child_activity_id(0, 0)
    with pytest.raises(ReplayQueueExhausted, match=(
            rf"^activity {middle_id}: expected ACTIVITY_SPAWN, trace is exhausted$")):
        replay_run(nested, trace_path)

    # A trace in which main spawned its two children the other way round.
    first, second = (child_activity_id(0, n) for n in range(2))

    def reverse_spawns(activity_id, events):
        assert activity_id == 0 and [e.data for e in events] == [first, second]
        return events[::-1]

    rewrite_trace(trace_path, reverse_spawns)
    with pytest.raises(ReplayTypeMismatch) as info:
        replay_run(flat, trace_path)
    assert str(info.value) == (f"activity 0: ACTIVITY_SPAWN(data={first}), "
                               f"trace holds ACTIVITY_SPAWN(data={second})")


def test_replayed_run_yields_identical_activity_ids(trace_path):
    def program():
        def inner():
            spawn_thread(lambda: None).join()

        a = spawn_thread(inner)
        b = spawn_thread(lambda: None)
        a.join()
        b.join()

    ex, _ = record_run(program, trace_path)
    ex2, _ = replay_run(program, trace_path)
    assert set(ex.activities) == set(ex2.activities)
    assert {a.kind.value for a in ex.activities.values()} == \
           {a.kind.value for a in ex2.activities.values()}


def test_current_activity_identities():
    import threading

    from cmrr import send
    from cmrr.bench.support import CompletionLatch

    ex = Execution(ExecutionMode.RECORD, sink=MemorySink())

    def program():
        main = current_activity()
        assert main.id == 0
        assert main.kind is ActivityKind.THREAD
        seen = {}

        def thread_body():
            seen["thread"] = current_activity()

        t = spawn_thread(thread_body)
        t.join()
        assert seen["thread"] is t

        latch = CompletionLatch(1)

        def handler(msg):
            seen["actor"] = current_activity()
            seen["os_thread"] = threading.current_thread().name
            latch.count_down()

        actor = spawn_actor(handler)
        send(actor, "go")
        latch.wait()
        # the handler ran on a pool worker but reports the actor identity
        assert seen["actor"] is actor
        assert seen["os_thread"].startswith("actor-worker")
        return "done"

    assert ex.run(program).outputs == "done"


def _failed_start(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(ThreadActivity, "start", refuse)


def _run_within(seconds, execution, program):
    """Run ``program`` in its own thread; returns what ``run`` returned or
    raised, or fails if it has not returned within ``seconds``."""
    outcome = []

    def runner():
        try:
            outcome.append(execution.run(program).outputs)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    t = threading.Thread(target=runner, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "the run did not return"
    return outcome[0]


@pytest.mark.parametrize("mode", [ExecutionMode.PASSIVE, ExecutionMode.RECORD])
def test_a_thread_that_fails_to_start_does_not_hold_up_the_run(mode, monkeypatch):
    _failed_start(monkeypatch)

    def program():
        try:
            spawn_thread(lambda: None)
        except RuntimeError as exc:
            return str(exc)

    ex = Execution(mode, sink="discard")
    assert _run_within(1.0, ex, program) == "can't start new thread"
    assert ex.live == 0


def test_a_failed_thread_start_that_is_not_caught_fails_the_run(monkeypatch):
    _failed_start(monkeypatch)
    outcome = _run_within(1.0, Execution(ExecutionMode.PASSIVE),
                          lambda: spawn_thread(lambda: None))
    assert isinstance(outcome, RuntimeError)
    assert str(outcome) == "can't start new thread"


def _thread_chain(depth):
    if depth:
        spawn_thread(_thread_chain, depth - 1).join()


@pytest.mark.parametrize("mode", [ExecutionMode.PASSIVE, ExecutionMode.RECORD])
@pytest.mark.parametrize("program", [
    lambda: _thread_chain(20),
    # An actor handler keeps the errors it raises: only the abort ends this run.
    lambda: fj_creation({"fanout": 1, "depth": 20}),
], ids=["thread-chain", "actor-chain"])
def test_spawning_past_the_id_limit_fails_the_run_with_a_usage_error(mode, program):
    outcome = _run_within(1.0, Execution(mode, sink="discard"), program)
    assert isinstance(outcome, UsageError)
    assert isinstance(outcome.__cause__, OverflowError)
    assert "cannot spawn: spawn tree too deep/wide for 64-bit activity ids" in str(outcome)
