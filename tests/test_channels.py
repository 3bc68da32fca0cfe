"""Rendezvous pairing, version sharing, and replay of channel races."""

import time
from collections import Counter

from cmrr import Channel, EventType, bench, parse_trace, spawn_process
from conftest import count_watchdog_waits, passive_run, record_run, replay_run


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


def test_replayed_channel_operation_waits_twice(tmp_path, monkeypatch):
    """The replay gate folds the recorded-version check into each side's
    one readiness wait: a read parks once, until a value waits in the slot
    at its recorded version; a write parks to claim the channel and once
    more for the partner's take."""
    path = str(tmp_path / "csp.trc")
    params = {"philosophers": 5, "rounds": 20}
    bench.run_benchmark("philosophers-csp", "record", trace_path=path, params=params)
    counts = Counter(e.event_type for queue in parse_trace(path).queues.values()
                     for e in queue.events)
    calls = count_watchdog_waits(monkeypatch)
    bench.run_benchmark("philosophers-csp", "replay", trace_path=path, params=params)
    rendezvous = 5 * 20 * 5 + 1  # five per meal, one to finish
    assert counts[EventType.CHANNEL_READ] == counts[EventType.CHANNEL_WRITE] == rendezvous
    assert len(calls) == 2 * rendezvous + rendezvous == 1503  # 2 per write, 1 per read
