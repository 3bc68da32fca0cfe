"""Execution lifecycle: sinks, flushing, full-consumption, perturbation."""

import random
import re
import threading
import time
from collections import Counter

import pytest

from cmrr import (
    Channel,
    EventType,
    Execution,
    ExecutionMode,
    MemorySink,
    PerturbationPlan,
    Promise,
    RRLock,
    current_activity,
    parse_trace,
    spawn_process,
    spawn_thread,
)
from cmrr import bench, tracefile, tracing
from cmrr.activities import Activity, ActivityKind
from cmrr.errors import ReplayLeftoverEvents, UsageError
from cmrr.tracefile import TraceSink, parse_trace_bytes
from conftest import record_run, replay_run
from test_primitives import SMALL_PARAMS


def _lock_rounds(rounds):
    lock = RRLock()

    def worker():
        for _ in range(rounds):
            with lock:
                pass

    t1 = spawn_thread(worker)
    t2 = spawn_thread(worker)
    t1.join()
    t2.join()
    return lock.version


def _solo_lock_rounds(rounds):
    lock = RRLock()
    for _ in range(rounds):
        with lock:
            pass
    return lock.version


def test_replay_with_fewer_operations_reports_leftover_events(trace_path):
    # a single activity's versions are consecutive, so a truncated replay
    # completes cleanly and the leftover check must catch the difference
    record_run(_solo_lock_rounds, trace_path, 5)
    with pytest.raises(ReplayLeftoverEvents):
        replay_run(_solo_lock_rounds, trace_path, 3)


def test_small_flush_threshold_produces_parseable_multi_chunk_trace(trace_path, monkeypatch):
    # 27-octet threshold forces a flush every third event per activity
    monkeypatch.setattr(tracing, "FLUSH_THRESHOLD", 27)
    ex, recorded = record_run(_lock_rounds, trace_path, 20)
    trace = parse_trace(trace_path)
    assert trace.chunk_count > 3
    total_locks = sum(
        1 for q in trace.queues.values() for e in q.events
        if e.event_type == EventType.LOCK
    )
    assert total_locks == 40
    ex2, replayed = replay_run(_lock_rounds, trace_path, 20)
    assert replayed.digest == recorded.digest


def test_memory_sink_mirrors_file_layout():
    sink = MemorySink()
    ex = Execution(ExecutionMode.RECORD, sink=sink)
    ex.run(_lock_rounds, 4)
    trace = parse_trace_bytes(sink.as_bytes())
    assert sum(len(q) for q in trace.queues.values()) > 0


@pytest.mark.parametrize("strategy", ["sender", "receiver"])
def test_memory_sink_carries_the_strategy(tmp_path, strategy):
    """A given sink is stamped with the run's strategy, so its bytes replay
    to the recorded digest."""
    spec = bench.REGISTRY["counting-actors"]
    params = dict(spec.defaults, count=50)
    sink = MemorySink()
    recorded = Execution("record", strategy=strategy, sink=sink).run(spec.func, params)
    path = tmp_path / "memory.trc"
    path.write_bytes(sink.as_bytes())
    assert parse_trace(str(path)).strategy.name == f"{strategy.upper()}_SIDE"
    replayed = Execution("replay", trace_path=str(path)).run(spec.func, params)
    assert replayed.digest == recorded.digest


@pytest.mark.parametrize("strategy", ["sender", "receiver"])
def test_file_sink_instance_carries_the_strategy(tmp_path, strategy):
    """A ``FileSink`` handed to the execution writes the run's strategy into
    its header, so the file replays to the recorded digest."""
    spec = bench.REGISTRY["pingpong-actors"]
    params = dict(spec.defaults, rounds=20)
    path = str(tmp_path / "file.trc")
    recorded = Execution("record", strategy=strategy,
                         sink=tracefile.FileSink(path)).run(spec.func, params)
    assert parse_trace(path).strategy.name == f"{strategy.upper()}_SIDE"
    replayed = Execution("replay", trace_path=path).run(spec.func, params)
    assert replayed.digest == recorded.digest
    assert replayed.actor_logs == recorded.actor_logs


def test_execution_runs_exactly_once():
    ex = Execution(ExecutionMode.PASSIVE)
    ex.run(lambda: None)
    with pytest.raises(UsageError):
        ex.run(lambda: None)


def test_duplicate_activity_id_rejected():
    ex = Execution(ExecutionMode.PASSIVE)
    Activity(ex, 0, ActivityKind.THREAD)
    with pytest.raises(UsageError, match="duplicate activity id 0"):
        Activity(ex, 0, ActivityKind.THREAD)


def test_trace_sink_base_class_submits_nothing():
    with pytest.raises(NotImplementedError):
        TraceSink().submit(0, b"")


def test_record_to_file_requires_path():
    with pytest.raises(UsageError):
        Execution(ExecutionMode.RECORD)


def test_replay_requires_trace_path():
    with pytest.raises(UsageError):
        Execution(ExecutionMode.REPLAY)


def test_unknown_sink_kind_rejected():
    with pytest.raises(UsageError):
        Execution(ExecutionMode.RECORD, sink="teleport")


def test_unknown_mode_rejected():
    with pytest.raises(UsageError,
                       match="unknown mode 'bogus'; expected passive, record or replay"):
        Execution("bogus")


def test_unknown_strategy_rejected():
    with pytest.raises(UsageError,
                       match="unknown actor strategy 'bogus'; expected sender or receiver"):
        Execution("record", strategy="bogus")


@pytest.mark.parametrize("pool_size", [0, -1])
def test_pool_size_below_one_rejected(pool_size):
    with pytest.raises(UsageError, match="actor pool size must be at least 1"):
        Execution(ExecutionMode.PASSIVE, pool_size=pool_size)


@pytest.mark.parametrize("prob, max_delay", [
    (-3, 0.001), (1.5, 0.001), (float("nan"), 0.001),
    (0.5, -1.0), (0.5, float("nan")), (0.5, float("inf")),
])
def test_perturbation_out_of_range_rejected(prob, max_delay):
    with pytest.raises(UsageError, match="perturbation needs prob in"):
        PerturbationPlan(1, prob=prob, max_delay=max_delay)


def test_perturbation_sequence_is_seed_deterministic(monkeypatch):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)

    def delays_for(seed):
        slept.clear()
        ex = Execution(ExecutionMode.PASSIVE, perturb=PerturbationPlan(seed, prob=1.0,
                                                                      max_delay=0.5))

        def program():
            for _ in range(10):
                current_activity().perturb_point()

        ex.run(program)
        return list(slept)

    def expected_delays(activity_id):
        # Each point draws its coin, then its share of max_delay, from the
        # activity's generator, seeded from the plan's seed and the id.
        rng = random.Random((7 * 0x9E3779B97F4A7C15 + activity_id) & (2**64 - 1))
        delays = []
        for _ in range(10):
            rng.random()  # the coin, always below prob=1.0
            delays.append(rng.random() * 0.5)
        return delays

    assert delays_for(7) == delays_for(7)
    assert delays_for(7) != delays_for(8)
    assert delays_for(7) == expected_delays(0)
    slept.clear()
    point = PerturbationPlan(7, prob=1.0, max_delay=0.5).point_for(37)
    for _ in range(10):
        point()
    assert slept == expected_delays(37)


def test_perturbation_points_follow_the_recorded_events(tmp_path, monkeypatch):
    """A plan perturbs an activity once per traced interaction, in every
    mode: in the lock, STM and channel philosophers, each activity reaches
    ``perturb_point`` as often in passive, record and replay as it has
    recorded events, and every benchmark's replay reaches it as often, per
    activity, as its recording did."""
    calls = Counter()
    monkeypatch.setattr(Activity, "perturb_point", lambda self: calls.update((self.id,)))
    assert sorted(SMALL_PARAMS) == sorted(bench.REGISTRY)
    for name, params in SMALL_PARAMS.items():
        for strategy in ("sender", "receiver"):
            path = str(tmp_path / f"{name}-{strategy}.trc")
            per_mode = {}
            for mode in ("passive", "record", "replay"):
                calls.clear()
                bench.run_benchmark(name, mode, strategy=strategy, trace_path=path,
                                    params=params, watchdog_seconds=5)
                per_mode[mode] = Counter(calls)
            assert per_mode["replay"] == per_mode["record"], (name, strategy)
            if name.startswith("philosophers-"):
                events = +Counter({activity_id: len(queue) for activity_id, queue
                                   in parse_trace(path).queues.items()})
                for mode, counted in per_mode.items():
                    assert counted == events, (name, strategy, mode)


def test_sink_failure_on_a_threads_last_flush_fails_the_run():
    """A sink that raises on a thread's final flush aborts the run with its
    error; the thread still counts down, so the run does not wait for ever."""
    class FailingSink(TraceSink):
        def submit(self, activity_id, payload):
            if activity_id != 0:
                raise RuntimeError("sink refused the chunk")

    def program():
        lock = RRLock()

        def worker():
            with lock:
                pass

        spawn_thread(worker)

    outcome = []

    def run():
        try:
            Execution(ExecutionMode.RECORD, sink=FailingSink()).run(program)
        except Exception as exc:  # noqa: BLE001 - checked below
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(10)
    assert not runner.is_alive(), "the run still waits for the failed thread"
    assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)


def test_user_exception_propagates_from_run():
    ex = Execution(ExecutionMode.PASSIVE)

    def program():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        ex.run(program)


def test_child_thread_exception_propagates_from_run():
    ex = Execution(ExecutionMode.PASSIVE)

    def program():
        def bad():
            raise ValueError("child failed")

        spawn_thread(bad).join()

    with pytest.raises(ValueError):
        ex.run(program)


def test_fj_creation_outputs():
    from cmrr.bench.actor_suite import fj_creation

    ex = Execution(ExecutionMode.PASSIVE)
    result = ex.run(fj_creation, {"fanout": 3, "depth": 2})
    assert result.outputs["actors"] == result.outputs["expected"] == 13


def _failing_write_chunk(fh, activity_id, payload):
    raise OSError(28, "No space left on device")


def test_trace_write_error_fails_the_run(trace_path, monkeypatch):
    # The producer actor flushes from inside its message handler, where a
    # raised error would go to the handler hook; the run must still fail.
    monkeypatch.setattr(tracefile, "write_chunk", _failing_write_chunk)
    with pytest.raises(OSError, match="No space left"):
        bench.run_benchmark("counting-actors", "record", trace_path=trace_path,
                            params={"count": 2000})


def test_trace_write_error_in_final_flush_fails_the_run(trace_path, monkeypatch):
    # Two events per thread: every chunk is flushed as its activity ends.
    monkeypatch.setattr(tracefile, "write_chunk", _failing_write_chunk)
    ex = Execution(ExecutionMode.RECORD, trace_path=trace_path)
    with pytest.raises(OSError, match="No space left"):
        ex.run(_lock_rounds, 2)
    assert ex.sink.chunks_written == 0


def _one_lock_and_one_promise():
    lock = RRLock()
    for _ in range(2):
        with lock:
            pass
    Promise().resolve(1)


@pytest.mark.parametrize("entity, edit, problem", [
    # A promise keeps the base rule: its versions are exactly 0..version-1.
    (Promise, lambda p: setattr(p, "version", 2),
     r"promise \(0, 1\): recorded versions \[0\]\.\.\. do not cover 0\.\.1"),
    (RRLock, lambda lock: lock._log.__setitem__(5, 0),
     r"lock \(0, 0\): duplicate recorded versions"),
    (RRLock, lambda lock: lock._log.__setitem__(5, 2),
     r"lock \(0, 0\): recorded version beyond final counter"),
    (RRLock, lambda lock: setattr(lock, "untimed_reacquisitions", 1),
     r"lock \(0, 0\): 2 recorded \+ 1 untimed reacquisitions != final version 2"),
], ids=["base-rule", "lock-duplicate", "lock-beyond-final", "lock-count"])
def test_version_completeness_report_names_each_violation(trace_path, entity, edit, problem):
    ex, _ = record_run(_one_lock_and_one_promise, trace_path)
    assert ex.version_completeness_report() == []
    target, = (e for e in ex.entities if isinstance(e, entity))
    edit(target)
    report = ex.version_completeness_report()
    assert len(report) == 1
    assert re.fullmatch(problem, report[0]), report


def _await(predicate):
    deadline = time.monotonic() + 5
    while not predicate():
        assert time.monotonic() < deadline, "the program did not get there"
        time.sleep(0.001)


def test_a_failed_run_raises_only_once_its_threads_have_stopped():
    """A process parked on a channel that nothing writes sees the abort
    only at its next wait tick; ``run`` waits for it before it raises."""
    reader = []

    def program():
        ch = Channel()
        reader.append(spawn_process(ch.read))
        _await(lambda: ch._readers)
        raise RuntimeError("main failed")

    with pytest.raises(RuntimeError, match="main failed"):
        Execution(ExecutionMode.PASSIVE).run(program)
    assert reader[0].done


def test_a_thread_alive_past_the_bound_is_named_in_a_note():
    """A thread blocked outside cmrr never sees the abort: after one
    watchdog interval ``run`` raises anyway, and says which thread lives."""
    go = threading.Event()

    def program():
        spawn_thread(go.wait, 10, name="stuck")
        raise RuntimeError("main failed")

    try:
        with pytest.raises(RuntimeError, match="main failed") as failed:
            Execution(ExecutionMode.PASSIVE, watchdog_seconds=0.2).run(program)
    finally:
        go.set()
    assert failed.value.__notes__ == [
        "thread activities still alive 0.2s after the run failed: stuck"]
