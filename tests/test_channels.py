"""Rendezvous pairing, version sharing, hand-off to parked readers, and
replay of channel races."""

import threading
import time
from collections import Counter

import pytest

from cmrr import (Channel, EventType, Execution, ExecutionMode, PerturbationPlan, bench,
                  parse_trace, spawn_process)
from conftest import note_watchdog_waits, passive_run, record_run, replay_run


def test_single_pair_shares_one_version(trace_path):
    def program():
        ch = Channel()

        def writer():
            ch.write("m")

        def reader(out):
            out.append(ch.read())

        got = []
        w = spawn_process(writer)
        r = spawn_process(reader, got)
        w.join()
        r.join()
        return {"got": got, "writer": w.id, "reader": r.id, "version": ch.version}

    ex, result = record_run(program, trace_path)
    assert result.outputs["got"] == ["m"]
    assert result.outputs["version"] == 1
    trace = parse_trace(trace_path)
    writer_events = [e for e in trace.queues[result.outputs["writer"]].events]
    reader_events = [e for e in trace.queues[result.outputs["reader"]].events]
    assert [(e.event_type, e.data) for e in writer_events] == [(EventType.CHANNEL_WRITE, 0)]
    assert [(e.event_type, e.data) for e in reader_events] == [(EventType.CHANNEL_READ, 0)]


def test_single_reader_single_writer_replay_is_trivially_equal(trace_path):
    def program():
        ch = Channel()

        def writer():
            for i in range(10):
                ch.write(i)

        def reader(out):
            for _ in range(10):
                out.append(ch.read())

        got = []
        w = spawn_process(writer)
        r = spawn_process(reader, got)
        w.join()
        r.join()
        return got

    ex, recorded = record_run(program, trace_path)
    assert recorded.outputs == list(range(10))
    ex2, replayed = replay_run(program, trace_path)
    assert replayed.outputs == recorded.outputs
    assert replayed.digest == recorded.digest


def _two_writers_program(delays):
    ch = Channel()

    def writer(tag, delay):
        time.sleep(delay)
        for i in range(2):
            ch.write(f"{tag}{i}")

    def reader(out):
        for _ in range(4):
            out.append(ch.read())

    got = []
    w1 = spawn_process(writer, "a", delays[0])
    w2 = spawn_process(writer, "b", delays[1])
    r = spawn_process(reader, got)
    w1.join()
    w2.join()
    r.join()
    return {"got": got}


def test_writer_pairing_reproduced_under_inversion(trace_path):
    ex, recorded = record_run(_two_writers_program, trace_path, (0.04, 0.0))
    assert recorded.outputs["got"] == ["b0", "b1", "a0", "a1"]
    for _ in range(10):
        ex2, replayed = replay_run(_two_writers_program, trace_path, (0.0, 0.04))
        assert replayed.outputs == recorded.outputs
        assert replayed.digest == recorded.digest


def _two_readers_program(delays):
    ch = Channel()
    got = {}

    def reader(tag, delay):
        time.sleep(delay)
        got[tag] = ch.read()

    def writer():
        ch.write("first")
        ch.write("second")

    r1 = spawn_process(reader, "r1", delays[0])
    r2 = spawn_process(reader, "r2", delays[1])
    w = spawn_process(writer)
    r1.join()
    r2.join()
    w.join()
    return {"got": dict(sorted(got.items()))}


def test_reader_pairing_reproduced_under_inversion(trace_path):
    ex, recorded = record_run(_two_readers_program, trace_path, (0.04, 0.0))
    assert recorded.outputs["got"] == {"r1": "second", "r2": "first"}
    for _ in range(10):
        ex2, replayed = replay_run(_two_readers_program, trace_path, (0.0, 0.04))
        assert replayed.outputs == recorded.outputs
        assert replayed.digest == recorded.digest


def test_read_write_event_counts_match_final_version(trace_path):
    ex, recorded = record_run(_two_writers_program, trace_path, (0.0, 0.01))
    channel = next(e for e in ex.entities if e.kind == "channel")
    counts = Counter(t for (_, t, _) in channel.log_entries())
    assert counts[EventType.CHANNEL_READ] == counts[EventType.CHANNEL_WRITE] == 4
    assert channel.version == 4
    # each rendezvous version carries exactly one read and one write
    assert channel.check_version_completeness() is None


@pytest.mark.parametrize("log, complete", [
    ([(1, EventType.CHANNEL_READ, 0), (2, EventType.CHANNEL_WRITE, 0),
      (3, EventType.CHANNEL_READ, 1), (2, EventType.CHANNEL_WRITE, 1)], True),
    # The same pairs, each write logged before its read.
    ([(2, EventType.CHANNEL_WRITE, 0), (1, EventType.CHANNEL_READ, 0),
      (2, EventType.CHANNEL_WRITE, 1), (3, EventType.CHANNEL_READ, 1)], False),
    # A read and a write per version, the rendezvous out of turn.
    ([(3, EventType.CHANNEL_READ, 1), (2, EventType.CHANNEL_WRITE, 1),
      (1, EventType.CHANNEL_READ, 0), (2, EventType.CHANNEL_WRITE, 0)], False),
])
def test_version_completeness_reads_each_read_before_its_write(log, complete):
    def program():
        channel = Channel()
        for entry in log:
            channel.note(*entry)
        channel.version = 2
        return channel.check_version_completeness()

    problem = Execution(ExecutionMode.PASSIVE).run(program).outputs
    assert (problem is None) == complete


def test_replay_tolerates_either_arrival_order_per_rendezvous(trace_path):
    def program(reader_delay):
        ch = Channel()
        got = []

        def writer():
            ch.write("x")

        def reader():
            time.sleep(reader_delay)
            got.append(ch.read())

        w = spawn_process(writer)
        r = spawn_process(reader)
        w.join()
        r.join()
        return got

    ex, recorded = record_run(program, trace_path, 0.0)
    # reader late, then writer late: neither order may deadlock
    for delay in (0.05, 0.0):
        ex2, replayed = replay_run(program, trace_path, delay)
        assert replayed.outputs == ["x"]


def test_passive_mode_plain_rendezvous():
    def program():
        ch = Channel()
        got = []

        def writer():
            ch.write(41)

        def reader():
            got.append(ch.read() + 1)

        w = spawn_process(writer)
        r = spawn_process(reader)
        w.join()
        r.join()
        return {"got": got, "version": ch.version}

    ex, result = passive_run(program)
    assert result.outputs == {"got": [42], "version": 0}


def test_each_rendezvous_parks_one_side_once(tmp_path, monkeypatch):
    """Only the side of a rendezvous that arrived first parks, once, on
    ``_monitor``: a reader for the hand-off, or a writer for the take. A
    read that finds a value in the slot does not wait at all, and a write
    waits to claim the channel, on ``_claims``, only when it is blocked.
    So a rendezvous makes exactly one park besides any claim waits, in
    every mode."""
    path = str(tmp_path / "csp.trc")
    params = {"philosophers": 5, "rounds": 20}
    rendezvous = 5 * 20 * 5 + 1  # five per meal, one to finish
    func = bench.REGISTRY["philosophers-csp"].func
    waits = note_watchdog_waits(monkeypatch)
    for mode in (ExecutionMode.PASSIVE, ExecutionMode.RECORD, ExecutionMode.REPLAY):
        waits.clear()
        ex = Execution(mode, trace_path=path, watchdog_seconds=10.0)
        ex.run(func, params)
        channels = [e for e in ex.entities if isinstance(e, Channel)]
        parks = [m for m, _, _ in waits
                 if any(m is ch._monitor for ch in channels)]
        claims = [m for m, _, _ in waits if any(m is ch._claims for ch in channels)]
        assert len(parks) == rendezvous == 501, mode
        assert len(parks) + len(claims) == len(waits), mode
        assert all(blocked for _, blocked, _ in waits), mode
    counts = Counter(e.event_type for queue in parse_trace(path).queues.values()
                     for e in queue.events)
    assert counts[EventType.CHANNEL_READ] == counts[EventType.CHANNEL_WRITE] == rendezvous


def _wait_for_parked_readers(ch, count):
    deadline = time.monotonic() + 5
    while len(ch._readers) < count:
        assert time.monotonic() < deadline, "the readers did not park"
        time.sleep(0.001)


def _parked_readers_program(channels, writers, release_order):
    """Readers r1 and r2 park on one channel, in ``release_order``, before
    the main activity writes "first" and then "second". Appends the channel
    to ``channels`` and the writing thread's ident to ``writers``."""
    ch = Channel()
    channels.append(ch)
    writers.append(threading.get_ident())
    got = {}
    go = {"r1": threading.Event(), "r2": threading.Event()}

    def reader(tag):
        go[tag].wait(5)
        got[tag] = ch.read()

    readers = [spawn_process(reader, tag) for tag in ("r1", "r2")]
    for parked, tag in enumerate(release_order, 1):
        go[tag].set()
        _wait_for_parked_readers(ch, parked)
    ch.write("first")
    ch.write("second")
    for r in readers:
        r.join()
    return dict(sorted(got.items()))


@pytest.mark.parametrize("mode", ["passive", "record", "replay"])
def test_write_hands_its_value_to_a_parked_reader(mode, tmp_path, monkeypatch):
    path = str(tmp_path / "handoff.trc")
    channels, writers, waits = [], [], note_watchdog_waits(monkeypatch)

    def run(mode):
        waits.clear()
        result = Execution(mode, trace_path=path, watchdog_seconds=5.0).run(
            _parked_readers_program, channels, writers, ("r1", "r2"))
        ch = channels[-1]
        # Both readers parked for a hand-off; neither write waited for a take.
        parked = [ident for m, _, ident in waits if m is ch._monitor]
        assert len(parked) == 2
        assert writers[-1] not in parked
        assert result.outputs == {"r1": "first", "r2": "second"}
        assert ch.check_version_completeness() is None
        return result

    if mode == "replay":
        recorded = run(ExecutionMode.RECORD)
        assert run(ExecutionMode.REPLAY).digest == recorded.digest
    else:
        run(ExecutionMode(mode))


def test_replayed_write_passes_over_a_parked_reader_that_is_not_due(tmp_path, monkeypatch):
    # Recorded: r2 parks first and gets "first". Replayed: r1 parks first,
    # but it awaits the second rendezvous, so the first write passes it
    # over and hands its value to r2.
    path = str(tmp_path / "due.trc")
    channels, writers, waits = [], [], note_watchdog_waits(monkeypatch)
    recorded = Execution(ExecutionMode.RECORD, trace_path=path).run(
        _parked_readers_program, channels, writers, ("r2", "r1"))
    assert recorded.outputs == {"r1": "second", "r2": "first"}
    waits.clear()
    replayed = Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=5.0).run(
        _parked_readers_program, channels, writers, ("r1", "r2"))
    assert replayed.outputs == recorded.outputs
    assert replayed.digest == recorded.digest
    # Neither write waited for a take.
    assert not any(m is channels[-1]._monitor and ident == writers[-1]
                   for m, _, ident in waits)


def _many_to_many_program(writers, readers, per_writer):
    """``writers`` writers and ``readers`` readers share two channels; each
    side alternates between them, so both channels see competing readers
    and writers. Returns what each reader got, in order."""
    chans = [Channel(), Channel()]
    per_reader = writers * per_writer // readers
    got = [[] for _ in range(readers)]

    def writer(w):
        for i in range(per_writer):
            chans[i % 2].write((w, i))

    def reader(r):
        for i in range(per_reader):
            got[r].append(chans[i % 2].read())

    spawned = ([spawn_process(writer, w) for w in range(writers)]
               + [spawn_process(reader, r) for r in range(readers)])
    for activity in spawned:
        activity.join()
    return got


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_competing_readers_and_writers_replay_their_pairing(seed, tmp_path):
    shape = (3, 4, 8)  # writers, readers, values per writer
    written = sorted((w, i) for w in range(3) for i in range(8))
    plan = PerturbationPlan(seed, prob=0.3)
    _, passive = passive_run(_many_to_many_program, *shape, perturb=plan)
    assert sorted(v for got in passive.outputs for v in got) == written

    path = str(tmp_path / "many.trc")
    record = Execution(ExecutionMode.RECORD, trace_path=path, perturb=plan)
    recorded = record.run(_many_to_many_program, *shape)
    assert sorted(v for got in recorded.outputs for v in got) == written
    assert record.version_completeness_report() == []
    replay = Execution(ExecutionMode.REPLAY, trace_path=path, watchdog_seconds=5.0,
                       perturb=PerturbationPlan(seed + 100, prob=0.3))
    replayed = replay.run(_many_to_many_program, *shape)
    assert replayed.outputs == recorded.outputs
    assert replayed.digest == recorded.digest
    assert replay.version_completeness_report() == []
