"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line when its
assertions hold. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import random
import statistics
import time
from collections import Counter

from cmrr import (
    Channel,
    EventType,
    Execution,
    ExecutionMode,
    PerturbationPlan,
    RRCondition,
    RRLock,
    TraceEvent,
    TxRef,
    atomic,
    bench,
    decode_event,
    encode_event,
    parse_trace,
    spawn_process,
    spawn_thread,
)
from cmrr.tracefile import write_trace

WATCHDOG = 10.0


def _pass(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def _record(program, path, *args, strategy=None, seed=0, **kwargs):
    ex = Execution(ExecutionMode.RECORD, strategy=strategy, trace_path=path,
                   perturb=PerturbationPlan(seed), **kwargs)
    return ex, ex.run(program, *args)


def _replay(program, path, *args, seed=None, **kwargs):
    perturb = PerturbationPlan(seed) if seed is not None else None
    ex = Execution(ExecutionMode.REPLAY, trace_path=path, perturb=perturb,
                   watchdog_seconds=WATCHDOG, **kwargs)
    return ex, ex.run(program, *args)


# -- 1: determinism suite -------------------------------------------------------


def test_criterion_1_determinism_suite(tmp_path):
    # Pinned to one CPU, the runs' threads do not hand the interpreter lock
    # across CPUs, which took most of the suite's time. Threads started by
    # a run inherit the pinning.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    started = time.monotonic()
    try:
        for name in sorted(bench.REGISTRY):
            path = str(tmp_path / f"{name}.trc")
            recorded = bench.run_benchmark(name, "record", trace_path=path, seed=0,
                                           watchdog_seconds=WATCHDOG)
            digests = {recorded.digest}
            for seed in range(1, 21):
                replayed = bench.run_benchmark(name, "replay", trace_path=path,
                                               seed=seed, watchdog_seconds=WATCHDOG)
                digests.add(replayed.digest)
            assert len(digests) == 1, f"{name}: digests diverged across 21 runs"
    finally:
        os.sched_setaffinity(0, affinity)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 2 minutes"
    _pass(1, f"7 benchmarks x (1 record + 20 seeded replays) identical "
             f"digests in {elapsed:.1f}s")


# -- 2: event framing property ---------------------------------------------------


def test_criterion_2_event_framing_round_trip(tmp_path):
    rng = random.Random(0xDECADE)
    types = list(EventType)
    events = [TraceEvent(int(rng.choice(types)), rng.getrandbits(64))
              for _ in range(10_000)]
    encoded = [encode_event(e) for e in events]
    assert all(len(raw) == 9 for raw in encoded)
    assert [decode_event(raw) for raw in encoded] == events

    path = str(tmp_path / "framing.trc")
    per_activity = {aid: events[aid::7] for aid in range(7)}
    write_trace(path, 0, [
        (aid, b"".join(encode_event(e) for e in seq))
        for aid, seq in per_activity.items()
    ])
    trace = parse_trace(path)
    for aid, seq in per_activity.items():
        parsed = list(trace.queues[aid].events)
        assert parsed == seq
        assert b"".join(encode_event(e) for e in parsed) == \
               b"".join(encode_event(e) for e in seq)
    _pass(2, "10,000 random events round-trip encode/decode and write/parse "
             "bit-exactly at 9 octets each")


# -- 3: version completeness ------------------------------------------------------


def test_criterion_3_version_completeness(tmp_path):
    checked = 0
    runs = [(name, strategy) for name in sorted(bench.REGISTRY)
            for strategy in ("sender", "receiver")]
    for name, strategy in runs:
        path = str(tmp_path / f"vc-{name}-{strategy}.trc")
        spec = bench.REGISTRY[name]
        ex = Execution(ExecutionMode.RECORD, strategy=strategy, trace_path=path,
                       perturb=PerturbationPlan(0))
        ex.run(spec.func, dict(spec.defaults))
        problems = ex.version_completeness_report()
        assert problems == [], f"{name} ({strategy}), record: {problems}"
        # Replay bumps the same versions: the sender-side replayed send
        # too, although it attaches its recorded version without waiting.
        ex2, _ = _replay(spec.func, path, dict(spec.defaults))
        problems = ex2.version_completeness_report()
        assert problems == [], f"{name} ({strategy}), replay: {problems}"
        checked += len(ex.entities) + len(ex2.entities)
    _pass(3, f"recorded versions form gap-free 0..K-1 multisets across "
             f"{checked} entities in {len(runs)} recorded and {len(runs)} "
             f"replayed runs")


# -- 4: lock order reproduction ----------------------------------------------------


def _lock_race(delays):
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


def test_criterion_4_lock_order_reproduction(tmp_path):
    path = str(tmp_path / "lockorder.trc")
    ex, recorded = _record(_lock_race, path, (0.03, 0.0))
    assert recorded.outputs["order"] == ["A2", "A1"]
    deviations = 0
    for i in range(100):
        # adverse scheduling: A1 arrives first in every replay
        ex2, replayed = _replay(_lock_race, path, (0.0, 0.002), seed=i)
        if replayed.outputs["order"] != ["A2", "A1"]:
            deviations += 1
    assert deviations == 0
    _pass(4, "100/100 replays acquire A2-first despite inverted arrival")


# -- 5: CSP pairing oracle -----------------------------------------------------------


def _interleavings(seqs):
    """Every merge of the given sequences that preserves each one's order."""
    seqs = [tuple(s) for s in seqs if s]
    if not seqs:
        return {()}
    results = set()
    for i, seq in enumerate(seqs):
        rest = seqs[:i] + ([seq[1:]] if seq[1:] else []) + seqs[i + 1:]
        for tail in _interleavings(rest):
            results.add((seq[0],) + tail)
    return results


def _two_writers_one_reader(delays):
    ch = Channel()

    def writer(tag, delay):
        time.sleep(delay)
        for i in range(2):
            ch.write((tag, i))

    def reader(out):
        for _ in range(4):
            out.append(ch.read())

    got = []
    w1 = spawn_process(writer, "w1", delays[0])
    w2 = spawn_process(writer, "w2", delays[1])
    r = spawn_process(reader, got)
    w1.join(), w2.join(), r.join()
    return {"got": got}


def _one_writer_two_readers(delays):
    ch = Channel()
    got = {}

    def reader(tag, delay):
        time.sleep(delay)
        got[tag] = ch.read()

    def writer():
        ch.write("m0")
        ch.write("m1")

    r1 = spawn_process(reader, "r1", delays[0])
    r2 = spawn_process(reader, "r2", delays[1])
    w = spawn_process(writer)
    r1.join(), r2.join(), w.join()
    return {"got": dict(sorted(got.items()))}


def test_criterion_5_csp_pairing_oracle(tmp_path):
    # brute-force enumeration: all admissible writer interleavings
    admissible = _interleavings([
        [("w1", 0), ("w1", 1)],
        [("w2", 0), ("w2", 1)],
    ])
    assert len(admissible) == 6

    path = str(tmp_path / "csp-writers.trc")
    ex, recorded = _record(_two_writers_one_reader, path, (0.02, 0.0))
    recorded_pairing = tuple(recorded.outputs["got"])
    assert recorded_pairing in admissible

    deviations = 0
    arrival_biases = [(0.0, 0.002), (0.002, 0.0), (0.0, 0.0), (0.001, 0.001)]
    for i in range(100):
        ex2, replayed = _replay(_two_writers_one_reader, path,
                                arrival_biases[i % len(arrival_biases)], seed=i)
        if tuple(replayed.outputs["got"]) != recorded_pairing:
            deviations += 1
    assert deviations == 0

    # symmetric: which reader pairs with which rendezvous
    reader_admissible = _interleavings([["r1"], ["r2"]])
    assert len(reader_admissible) == 2
    path2 = str(tmp_path / "csp-readers.trc")
    ex3, recorded_r = _record(_one_writer_two_readers, path2, (0.02, 0.0))
    assert tuple(
        tag for tag, _ in sorted(recorded_r.outputs["got"].items(),
                                 key=lambda kv: kv[1])
    ) in reader_admissible
    for i in range(100):
        ex4, replayed_r = _replay(_one_writer_two_readers, path2,
                                  arrival_biases[i % len(arrival_biases)], seed=i)
        if replayed_r.outputs != recorded_r.outputs:
            deviations += 1
    assert deviations == 0
    _pass(5, "replay admits exactly the recorded rendezvous pairing "
             "(6 writer interleavings enumerated; 200 replays, 0 deviations)")


# -- 6: timed-wait outcome replay ----------------------------------------------------


_RECORDED_TIMEOUT = 0.8


def _timeout_scenario():
    lock = RRLock()
    cond = RRCondition(lock)
    outcomes = []

    def waiter():
        with lock:
            outcomes.append(cond.wait_timeout(5.0))
            outcomes.append(cond.wait_timeout(_RECORDED_TIMEOUT))

    t = spawn_thread(waiter)
    time.sleep(0.1)
    with lock:
        cond.signal()
    t.join()
    return {"outcomes": outcomes}


def test_criterion_6_timed_wait_outcomes(tmp_path):
    path = str(tmp_path / "timeout.trc")
    ex, recorded = _record(_timeout_scenario, path, seed=0)
    assert recorded.outputs["outcomes"] == [True, False]
    for i in range(5):
        start = time.monotonic()
        ex2, replayed = _replay(_timeout_scenario, path, seed=i)
        elapsed = time.monotonic() - start
        assert replayed.outputs["outcomes"] == [True, False]
        assert elapsed < _RECORDED_TIMEOUT, \
            f"timeout was not simulated: replay took {elapsed:.2f}s"
        assert replayed.digest == recorded.digest
    _pass(6, "recorded signal and timeout outcomes replay bit-identically, "
             f"with replays finishing inside the {_RECORDED_TIMEOUT}s timer")


# -- 7: STM commit order ---------------------------------------------------------------


def _stm_contention():
    cell = TxRef(0, "shared-counter")

    def worker():
        for _ in range(100):
            atomic(lambda: cell.set(cell.get() + 1))

    t1 = spawn_thread(worker)
    t2 = spawn_thread(worker)
    t1.join()
    t2.join()
    return {"final": cell.get()}


def test_criterion_7_stm_commit_order(tmp_path):
    path = str(tmp_path / "stm.trc")
    ex, recorded = _record(_stm_contention, path, seed=0)
    assert recorded.outputs["final"] == 200

    counts = Counter(
        e.event_type for q in parse_trace(path).queues.values() for e in q.events
    )
    assert counts[EventType.TX_COMMIT] == 200  # failed attempts record nothing
    assignment = ex.commit_point.log_entries()
    assert sorted(data for (_, _, data) in assignment) == list(range(200))

    for seed in range(3):
        ex2, replayed = _replay(_stm_contention, path, seed=seed)
        assert replayed.outputs["final"] == 200
        assert ex2.commit_point.log_entries() == assignment
    _pass(7, "200 contended increments: commit versions 0..199 gap-free, "
             "per-activity commit assignment identical across replays")


# -- 8: actor strategy duality -----------------------------------------------------------


_RECEIVE_TYPES = (EventType.MSG_RCVD, EventType.PROMMSG_RCVD)
_SEND_TYPES = (EventType.MSG_SEND, EventType.PROMISE_RESOLVE,
               EventType.PROMISE_MSG_STORE)


def test_criterion_8_strategy_duality(tmp_path):
    for name, params in (("pingpong-actors", {"rounds": 60}),
                         ("counting-actors", {"count": 120})):
        logs = {}
        traces = {}
        for strategy in ("sender", "receiver"):
            path = str(tmp_path / f"dual-{name}-{strategy}.trc")
            recorded = bench.run_benchmark(
                name, "record", strategy=strategy, trace_path=path,
                params=params, seed=0, watchdog_seconds=WATCHDOG,
            )
            replayed = bench.run_benchmark(
                name, "replay", trace_path=path, params=params,
                watchdog_seconds=WATCHDOG,
            )
            assert replayed.actor_logs == recorded.actor_logs
            logs[strategy] = recorded.actor_logs
            traces[strategy] = parse_trace(path)
        # identical handler-invocation order under both strategies
        assert logs["sender"] == logs["receiver"], name

        # exact-count reconciliation of the trace-size delta: the two traces
        # differ only by the strategy-structural event families
        def type_counts(trace):
            counts = Counter()
            for queue in trace.queues.values():
                counts.update(e.event_type for e in queue.events)
            return counts

        sender_counts = type_counts(traces["sender"])
        receiver_counts = type_counts(traces["receiver"])
        for event_type in set(sender_counts) | set(receiver_counts):
            if event_type not in _RECEIVE_TYPES + _SEND_TYPES:
                assert sender_counts[event_type] == receiver_counts[event_type]
        structural_delta = (
            sum(receiver_counts[t] for t in _RECEIVE_TYPES)
            - sum(sender_counts[t] for t in _SEND_TYPES)
        )
        size_delta = (sum(receiver_counts.values()) - sum(sender_counts.values()))
        assert size_delta == structural_delta, name
    _pass(8, "both strategies yield identical handler orders; trace-size "
             "difference equals the structural receive-vs-send event delta")


# -- 9: multi-paradigm integration ---------------------------------------------------------


def test_criterion_9_sales_pipeline_families(tmp_path):
    path = str(tmp_path / "sales.trc")
    recorded = bench.run_benchmark("sales-pipeline", "record", trace_path=path,
                                   seed=0, watchdog_seconds=WATCHDOG)
    counts = Counter(
        e.event_type for q in parse_trace(path).queues.values() for e in q.events
    )
    for family in (EventType.LOCK, EventType.CHANNEL_READ,
                   EventType.CHANNEL_WRITE, EventType.TX_COMMIT,
                   EventType.ACTIVITY_SPAWN):
        assert counts[family] > 0, f"missing {family.name}"
    assert counts[EventType.MSG_SEND] > 0 or counts[EventType.MSG_RCVD] > 0
    for seed in range(3):
        replayed = bench.run_benchmark("sales-pipeline", "replay", trace_path=path,
                                       seed=seed, watchdog_seconds=WATCHDOG)
        assert replayed.digest == recorded.digest
    _pass(9, "sales-pipeline trace holds every event family and replays "
             "deterministically (also exercised by criterion 1)")


# -- 10: recording-overhead smoke test --------------------------------------------------------


def test_criterion_10_recording_overhead_smoke():
    def once(mode):
        start = time.perf_counter()
        Execution(mode, sink="discard").run(
            bench.REGISTRY["counting-actors"].func, {"count": 4000})
        return time.perf_counter() - start

    # On one CPU, in alternating pairs, a change of the machine's speed
    # moves both halves of a ratio alike. Threads started by a run
    # inherit the pinning.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        ratios = []
        for _ in range(10):
            passive = once(ExecutionMode.PASSIVE)
            ratios.append(once(ExecutionMode.RECORD) / passive)
    finally:
        os.sched_setaffinity(0, affinity)
    factor = statistics.median(ratios)
    assert factor < 2.0, f"recording factor {factor:.2f}x over passive"
    _pass(10, f"counting-actors with discard sink runs at {factor:.2f}x "
              f"passive wall time, median of 10 pinned pairs (sanity bound 2.0x)")
