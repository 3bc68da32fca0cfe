"""Execution lifecycle: sinks, flushing, full-consumption, perturbation."""

import pytest

from cmrr import (
    EventType,
    Execution,
    ExecutionMode,
    MemorySink,
    PerturbationPlan,
    RRLock,
    parse_trace,
    spawn_thread,
)
from cmrr import bench, tracefile
from cmrr.errors import ReplayLeftoverEvents, UsageError
from cmrr.tracefile import parse_trace_bytes
from conftest import record_run, replay_run


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


def test_small_flush_threshold_produces_parseable_multi_chunk_trace(trace_path):
    # 27-octet threshold forces a flush every third event per activity
    ex, recorded = record_run(_lock_rounds, trace_path, 20, flush_threshold=27)
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


def test_execution_runs_exactly_once():
    ex = Execution(ExecutionMode.PASSIVE)
    ex.run(lambda: None)
    with pytest.raises(UsageError):
        ex.run(lambda: None)


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


def test_perturbation_sequence_is_seed_deterministic():
    def delays_for(seed):
        ex = Execution(ExecutionMode.PASSIVE, perturb=PerturbationPlan(seed, prob=1.0,
                                                                      max_delay=0.0))
        sampled = []

        def program():
            from cmrr import current_activity

            act = current_activity()
            rng_draws = [act._perturb_rng.random() for _ in range(10)]
            sampled.extend(rng_draws)

        ex.run(program)
        return sampled

    assert delays_for(7) == delays_for(7)
    assert delays_for(7) != delays_for(8)


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
