"""Transaction isolation, conflict retry, and commit-order replay."""

import threading
from collections import Counter

import pytest

from cmrr import EventType, TxRef, atomic, parse_trace, spawn_thread
from cmrr.errors import TransactionUsageError
from conftest import passive_run, record_run, replay_run


def test_lone_transaction_commits_once(trace_path):
    def program():
        cell = TxRef(0)
        atomic(lambda: cell.set(cell.get() + 1))
        return cell.get()

    ex, result = record_run(program, trace_path)
    assert result.outputs == 1
    counts = Counter(
        e.event_type for q in parse_trace(trace_path).queues.values() for e in q.events
    )
    assert counts[EventType.TX_COMMIT] == 1


def _contended_increments(per_worker):
    cell = TxRef(0, "counter")
    log = []

    def worker(tag):
        for _ in range(per_worker):
            atomic(lambda: cell.set(cell.get() + 1))
            log.append(tag)

    t1 = spawn_thread(worker, "a")
    t2 = spawn_thread(worker, "b")
    t1.join()
    t2.join()
    return {"final": cell.get()}


def test_contended_counter_and_gap_free_commit_versions(trace_path):
    ex, result = record_run(_contended_increments, trace_path, 100, seed=11)
    assert result.outputs["final"] == 200
    counts = Counter(
        e.event_type for q in parse_trace(trace_path).queues.values() for e in q.events
    )
    assert counts[EventType.TX_COMMIT] == 200
    commit_log = ex.commit_point.log_entries()
    assert sorted(data for (_, _, data) in commit_log) == list(range(200))


def test_replay_reproduces_commit_assignment(trace_path):
    ex, recorded = record_run(_contended_increments, trace_path, 50, seed=3)
    recorded_assignment = ex.commit_point.log_entries()
    for seed in (None, 1, 2):
        ex2, replayed = replay_run(_contended_increments, trace_path, 50, seed=seed)
        assert replayed.outputs == recorded.outputs
        assert ex2.commit_point.log_entries() == recorded_assignment
        assert replayed.digest == recorded.digest


def test_conflicting_attempt_retries_and_leaves_no_trace():
    """A transaction whose read set went stale must re-run and, once
    committed, observe the other writer's value."""

    def program():
        cell = TxRef(10, "contended")
        attempts = []
        first_read = threading.Event()
        other_committed = threading.Event()

        def slow_tx():
            def body():
                attempts.append("attempt")
                value = cell.get()
                first_read.set()
                # hold the working copy until the other side commits;
                # host-level sync keeps the timing deterministic here
                other_committed.wait(5.0)
                cell.set(value + 1)

            atomic(body)

        def fast_tx():
            first_read.wait(5.0)
            atomic(lambda: cell.set(cell.get() + 100))
            other_committed.set()

        t1 = spawn_thread(slow_tx)
        t2 = spawn_thread(fast_tx)
        t1.join()
        t2.join()
        return {"final": cell.get(), "attempts": len(attempts)}

    ex, result = passive_run(program)
    # fast_tx commits +100 first; slow_tx conflicts, retries, applies +1 on top
    assert result.outputs["final"] == 111
    assert result.outputs["attempts"] == 2


def test_second_read_in_an_attempt_returns_the_first_read():
    """Inside one attempt, reading a cell again returns the value of the
    first read even after another activity has committed to the cell;
    the attempt then fails to commit and runs again."""

    def program():
        cell = TxRef(10, "contended")
        reads = []
        first_read = threading.Event()
        other_committed = threading.Event()

        def slow_tx():
            def body():
                first = cell.get()
                first_read.set()
                other_committed.wait(5.0)
                reads.append((first, cell.get()))

            atomic(body)

        def fast_tx():
            first_read.wait(5.0)
            atomic(lambda: cell.set(cell.get() + 100))
            other_committed.set()

        t1 = spawn_thread(slow_tx)
        t2 = spawn_thread(fast_tx)
        t1.join()
        t2.join()
        return reads

    ex, result = passive_run(program)
    assert result.outputs == [(10, 10), (110, 110)]


def test_failed_attempts_record_nothing(trace_path):
    # recorded variant of the forced-conflict scenario: event count equals
    # successful commits, not attempts
    def program():
        cell = TxRef(0, "c")
        started = threading.Event()
        committed = threading.Event()

        def slow():
            def body():
                value = cell.get()
                started.set()
                committed.wait(5.0)
                cell.set(value + 1)

            atomic(body)

        def fast():
            started.wait(5.0)
            atomic(lambda: cell.set(cell.get() + 1))
            committed.set()

        a = spawn_thread(slow)
        b = spawn_thread(fast)
        a.join()
        b.join()
        return cell.get()

    ex, result = record_run(program, trace_path)
    assert result.outputs == 2
    counts = Counter(
        e.event_type for q in parse_trace(trace_path).queues.values() for e in q.events
    )
    assert counts[EventType.TX_COMMIT] == 2


def test_nested_transactions_rejected():
    def program():
        cell = TxRef(0)
        atomic(lambda: atomic(lambda: cell.set(1)))

    with pytest.raises(TransactionUsageError):
        passive_run(program)


def test_set_outside_transaction_rejected():
    def program():
        TxRef(0).set(1)

    with pytest.raises(TransactionUsageError):
        passive_run(program)


def test_get_outside_transaction_sees_committed_value():
    def program():
        cell = TxRef(5)
        atomic(lambda: cell.set(6))
        return cell.get()

    ex, result = passive_run(program)
    assert result.outputs == 6


def test_body_exception_discards_attempt(trace_path):
    def program():
        cell = TxRef(0)

        def body():
            cell.set(99)
            raise RuntimeError("user bug")

        try:
            atomic(body)
        except RuntimeError:
            pass
        return cell.get()

    ex, result = record_run(program, trace_path)
    assert result.outputs == 0
    counts = Counter(
        e.event_type for q in parse_trace(trace_path).queues.values() for e in q.events
    )
    assert EventType.TX_COMMIT not in counts


def test_a_transaction_reads_its_own_writes_also_after_a_conflict_retry():
    # The first attempt waits, between its writes and its commit, for
    # another thread to commit to the same cell, so it conflicts and retries.
    def program():
        cell = TxRef(0)
        seen = []
        conflicting, committed = threading.Event(), threading.Event()

        def other():
            conflicting.wait(5)
            atomic(lambda: cell.set(100))
            committed.set()

        def body():
            before = cell.get()
            cell.set(before + 1)
            seen.append((before, cell.get()))
            if len(seen) == 1:
                conflicting.set()
                committed.wait(5)

        t = spawn_thread(other)
        atomic(body)
        t.join()
        return {"seen": seen, "final": cell.get()}

    _, result = passive_run(program)
    assert result.outputs == {"seen": [(0, 1), (100, 101)], "final": 101}


def test_repr_names_the_label_or_else_the_object():
    def program():
        labelled, bare = TxRef(0, "meals-0"), TxRef(0)
        return repr(labelled), repr(bare), hex(id(bare))

    _, result = passive_run(program)
    labelled, bare, address = result.outputs
    assert labelled == "<TxRef meals-0>"
    assert bare == f"<TxRef {address}>"
