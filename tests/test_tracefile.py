import io
import os
import random
import subprocess
import sys
import time

import pytest

from cmrr import EventType, Execution, MemorySink, TraceEvent, bench, encode_event, parse_trace
from cmrr.errors import TraceFormatError
from cmrr.events import pack_event
from cmrr.tracefile import (
    CHUNK_HEADER_SIZE,
    HEADER_SIZE,
    ActorStrategy,
    parse_trace_bytes,
    strategy_from_flags,
    strategy_to_flags,
    write_chunk,
    write_header,
    write_trace,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _events_bytes(events):
    return b"".join(encode_event(e) for e in events)


def test_header_only_file_parses_to_empty_map(tmp_path):
    path = str(tmp_path / "empty.trc")
    write_trace(path, 0, [])
    trace = parse_trace(path)
    assert trace.queues == {}
    assert trace.format_version == 1
    assert trace.file_size == HEADER_SIZE == 8


def test_single_chunk_file_size_matches_layout(tmp_path):
    path = str(tmp_path / "one.trc")
    events = [TraceEvent(EventType.LOCK, 0), TraceEvent(EventType.LOCK, 1)]
    write_trace(path, 0, [(7, _events_bytes(events))])
    trace = parse_trace(path)
    assert trace.file_size == HEADER_SIZE + CHUNK_HEADER_SIZE + 18
    assert [e for e in trace.queues[7].events] == events


def test_interleaved_chunks_concatenate_per_activity(tmp_path):
    path = str(tmp_path / "multi.trc")
    a1 = [TraceEvent(EventType.LOCK, v) for v in range(4)]
    a2 = [TraceEvent(EventType.TX_COMMIT, v) for v in range(3)]
    chunks = [
        (1, _events_bytes(a1[:2])),
        (2, _events_bytes(a2[:1])),
        (1, _events_bytes(a1[2:])),
        (2, _events_bytes(a2[1:])),
    ]
    write_trace(path, 0, chunks)
    trace = parse_trace(path)
    assert list(trace.queues[1].events) == a1
    assert list(trace.queues[2].events) == a2
    assert trace.chunk_count == 4


def test_round_trip_many_random_events(tmp_path):
    rng = random.Random(1234)
    types = list(EventType)
    per_activity = {
        aid: [TraceEvent(int(rng.choice(types)), rng.getrandbits(64))
              for _ in range(rng.randrange(50, 200))]
        for aid in range(1, 8)
    }
    path = str(tmp_path / "rand.trc")
    # split each activity's stream in two and interleave chunks across
    # activities; only per-activity relative order matters to the parser
    first, second = [], []
    for aid, events in per_activity.items():
        cut = len(events) // 2
        first.append((aid, _events_bytes(events[:cut])))
        second.append((aid, _events_bytes(events[cut:])))
    write_trace(path, 0, first + second)
    trace = parse_trace(path)
    for aid, events in per_activity.items():
        assert list(trace.queues[aid].events) == events


def test_parse_rejects_bad_magic():
    with pytest.raises(TraceFormatError, match="magic"):
        parse_trace_bytes(b"NOPE" + bytes(4))


def test_parse_rejects_bad_version():
    buf = io.BytesIO()
    buf.write(b"CMRR")
    buf.write((9).to_bytes(2, "little"))
    buf.write((0).to_bytes(2, "little"))
    with pytest.raises(TraceFormatError, match="version"):
        parse_trace_bytes(buf.getvalue())


def test_parse_rejects_truncation_and_bad_framing():
    good = io.BytesIO()
    write_header(good, 0)
    write_chunk(good, 1, _events_bytes([TraceEvent(EventType.LOCK, 1)]))
    raw = good.getvalue()

    with pytest.raises(TraceFormatError):
        parse_trace_bytes(raw[:4])  # truncated header
    with pytest.raises(TraceFormatError):
        parse_trace_bytes(raw[:-2])  # truncated payload
    with pytest.raises(TraceFormatError):
        parse_trace_bytes(raw + raw[HEADER_SIZE:HEADER_SIZE + 5])  # truncated chunk header

    # payload length not a multiple of the event size
    bad = io.BytesIO()
    write_header(bad, 0)
    bad.write((1).to_bytes(8, "little"))
    bad.write((8).to_bytes(4, "little"))
    bad.write(bytes(8))
    with pytest.raises(TraceFormatError, match="multiple"):
        parse_trace_bytes(bad.getvalue())


def test_parse_rejects_unregistered_tag_in_payload():
    buf = io.BytesIO()
    write_header(buf, 0)
    write_chunk(buf, 1, _events_bytes([TraceEvent(EventType.LOCK, 0)]))
    chunk_offset = buf.tell()
    good = _events_bytes([TraceEvent(EventType.LOCK, 1), TraceEvent(EventType.LOCK, 2)])
    write_chunk(buf, 5, good + bytes([0xEE]) + bytes(8) + bytes(9))
    with pytest.raises(TraceFormatError, match="tag 238") as excinfo:
        parse_trace_bytes(buf.getvalue())
    message = str(excinfo.value)
    assert "activity 5" in message
    assert f"chunk at offset {chunk_offset}" in message
    assert "at event 2" in message


def test_chunk_writer_rejects_partial_events():
    with pytest.raises(TraceFormatError):
        write_chunk(io.BytesIO(), 1, bytes(10))


def test_strategy_flags():
    assert strategy_to_flags(ActorStrategy.SENDER_SIDE) == 0
    assert strategy_to_flags(ActorStrategy.RECEIVER_SIDE) == 1
    assert strategy_from_flags(0) is ActorStrategy.SENDER_SIDE
    assert strategy_from_flags(1) is ActorStrategy.RECEIVER_SIDE
    with pytest.raises(TraceFormatError):
        strategy_from_flags(0x2)


_SMALL = {"philosophers-locks": {"rounds": 30}, "philosophers-stm": {"rounds": 30},
          "philosophers-csp": {"rounds": 30}, "pingpong-actors": {"rounds": 100},
          "counting-actors": {"count": 600}, "fj-creation-actors": {},
          "sales-pipeline": {"records": 20}}


@pytest.mark.parametrize("name", sorted(bench.REGISTRY))
def test_parsed_columns_reencode_to_the_recorded_payloads(name):
    """Each activity's parsed type and word columns, encoded again event by
    event, are exactly the octets its recorded chunks held."""
    assert set(_SMALL) == set(bench.REGISTRY)
    spec = bench.REGISTRY[name]
    sink = MemorySink()
    Execution("record", sink=sink).run(spec.func, dict(spec.defaults, **_SMALL[name]))
    recorded: dict[int, bytes] = {}
    for activity_id, payload in sink.chunks:
        recorded[activity_id] = recorded.get(activity_id, b"") + payload
    trace = parse_trace_bytes(sink.as_bytes())
    assert recorded.keys() == trace.queues.keys()
    for activity_id, queue in trace.queues.items():
        assert b"".join(map(pack_event, queue._types, queue._words)) == recorded[activity_id]


def test_a_short_chunk_write_raises():
    class ShortFile(io.BytesIO):
        def write(self, data):
            return super().write(data[:-1])

    with pytest.raises(OSError, match="short write of a 21-octet chunk"):
        write_chunk(ShortFile(), 1, _events_bytes([TraceEvent(EventType.LOCK, 0)]))


# Two threads take two locks in opposite orders and hang for ever; the main
# activity prints "hung" once both hold their first lock.
_HUNG_RECORDING = """
import sys, threading
from cmrr import Execution, RRLock, spawn_thread

def program():
    first, second = RRLock(), RRLock()
    both_held = threading.Barrier(3)

    def take(a, b):
        with a:
            both_held.wait(10)
            with b:
                pass

    spawn_thread(take, first, second)
    spawn_thread(take, second, first)
    both_held.wait(10)
    print("hung", flush=True)

Execution("record", trace_path=sys.argv[1]).run(program)
"""


def _start(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)


def _kill(child):
    running = child.poll() is None
    child.kill()
    child.wait(10)
    child.stdout.close()
    assert running, "the recording ended before it was killed"


def test_a_killed_hung_recording_leaves_the_header(tmp_path):
    """Every event is still in a record buffer, yet the file holds the
    header, written through at the start of the run."""
    path = tmp_path / "hung.trc"
    child = _start(["-c", _HUNG_RECORDING, str(path)])
    try:
        assert child.stdout.readline() == "hung\n"
        time.sleep(0.2)
    finally:
        _kill(child)
    assert path.stat().st_size == HEADER_SIZE
    assert parse_trace(str(path)).queues == {}


def test_a_recording_killed_mid_run_leaves_whole_chunks(tmp_path):
    """A recording of philosophers-locks, killed with SIGKILL at 0.5 s
    (later only if it has not yet written a chunk), leaves a file that
    parses: each chunk reached the file in one write."""
    path = tmp_path / "killed.trc"
    child = _start(["-m", "cmrr.cli", "run", "philosophers-locks", "--mode", "record",
                    "--trace", str(path), "--params", "rounds=100000"])
    try:
        time.sleep(0.5)
        deadline = time.monotonic() + 10
        while not (path.exists() and path.stat().st_size > HEADER_SIZE):
            assert time.monotonic() < deadline, "no chunk was written"
            time.sleep(0.01)
    finally:
        _kill(child)
    trace = parse_trace(str(path))
    assert trace.chunk_count >= 1 and trace.file_size == path.stat().st_size
