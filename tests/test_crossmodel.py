"""Cross-model interaction fuzz: threads, actors, channels, and
transactions mixed in one program, recorded and replayed.

The program is a pure function of its seed (per-activity RNGs decide the
operation mix) while scheduling is free to race; replay must reproduce
the recorded resolution of every race across all models at once.
"""

import random

import pytest

from cmrr import Channel, TxRef, atomic, send, spawn_actor, spawn_process, spawn_thread
from cmrr.activities import ThreadActivity
from cmrr.bench.support import CompletionLatch
from cmrr.locks import RRLock
from conftest import passive_run, record_run, replay_run

_WORKERS = 3
_OPS = 10
_PUMP_READS = 20


def _chaos(seed):
    latch = CompletionLatch(_WORKERS + 1)
    cell = TxRef(0, "cell")
    tally_lock = RRLock()
    tally = []
    ch = Channel()
    sink_log = []

    def sink_handler(msg):
        if msg == "stop":
            latch.count_down()
            return
        sink_log.append(msg)

    sink = spawn_actor(sink_handler, name="sink")

    def pump_proc():
        for i in range(_PUMP_READS):
            value = ch.read()
            if i % 4 == 0:
                send(sink, ("pump", value))

    pump = spawn_process(pump_proc)

    def op_plan(tag):
        rng = random.Random(seed * 7919 + tag)
        return [rng.randrange(4) for _ in range(_OPS)]

    def worker(tag):
        for i, op in enumerate(op_plan(tag)):
            if op == 0:
                atomic(lambda: cell.set(cell.get() + 1))
            elif op == 1:
                with tally_lock:
                    tally.append((tag, i))
            elif op == 2:
                ch.write((tag, i))
            else:
                send(sink, (tag, i))

    planned_writes = sum(plan.count(2) for plan in map(op_plan, range(_WORKERS)))
    threads = [spawn_thread(worker, tag) for tag in range(_WORKERS)]
    for _ in range(_PUMP_READS - planned_writes):
        ch.write(("main", -1))
    for t in threads:
        t.join()
        latch.count_down()
    pump.join()
    send(sink, "stop")
    latch.wait()
    return {"cell": cell.get(), "tally": tally, "sink": sink_log}


@pytest.mark.parametrize("seed", [0, 3])
def test_cross_model_program_replays_deterministically(tmp_path, seed):
    path = str(tmp_path / f"chaos-{seed}.trc")
    ex, recorded = record_run(_chaos, path, seed, seed=seed)
    assert ex.version_completeness_report() == []
    for replay_seed in (seed + 50, seed + 51):
        ex2, replayed = replay_run(_chaos, path, seed, seed=replay_seed, pool_size=2)
        assert replayed.outputs == recorded.outputs
        assert replayed.digest == recorded.digest


_UNJOINED_MESSAGES = 3


def _unjoined(_):
    """Main returns at once; all the work runs after it, unjoined. Each
    message to ``first`` spawns a thread that sends to ``second``, whose
    handler spawns a channel writer and a channel reader process; each
    reader reports what it read to ``collector``. The logs fill in after
    main returned, and only actors, in their recorded mailbox order, write
    them."""
    ch = Channel()
    logs = {"first": [], "second": [], "collected": []}
    collector = spawn_actor(logs["collected"].append, name="collector")

    def second_handler(msg):
        logs["second"].append(msg)
        spawn_process(ch.write, msg)
        spawn_process(lambda: send(collector, ch.read()))

    second = spawn_actor(second_handler, name="second")

    def first_handler(msg):
        logs["first"].append(msg)
        spawn_thread(send, second, msg)

    first = spawn_actor(first_handler, name="first")
    for n in range(_UNJOINED_MESSAGES):
        send(first, n)
    return logs


def _assert_all_work_done(ex, result):
    expected = list(range(_UNJOINED_MESSAGES))
    assert {name: sorted(log) for name, log in result.outputs.items()} == {
        "first": expected, "second": expected, "collected": expected}
    threads = [act for act in ex.activities.values() if isinstance(act, ThreadActivity)]
    assert len(threads) == 3 * _UNJOINED_MESSAGES
    assert all(act.done for act in threads)
    assert ex.live == 0


@pytest.mark.parametrize("strategy", ["sender", "receiver"])
def test_unjoined_cross_model_work_finishes_before_run_returns(tmp_path, strategy):
    ex, result = passive_run(_unjoined, None, strategy=strategy)
    _assert_all_work_done(ex, result)
    path = str(tmp_path / f"unjoined-{strategy}.trc")
    ex, recorded = record_run(_unjoined, path, None, strategy=strategy)
    _assert_all_work_done(ex, recorded)
    ex, replayed = replay_run(_unjoined, path, None)
    _assert_all_work_done(ex, replayed)
    assert replayed.outputs == recorded.outputs
    assert replayed.actor_logs == recorded.actor_logs
    assert replayed.digest == recorded.digest
