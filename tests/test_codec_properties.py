"""Property tests of the trace codec.

The record buffer's chunk packer must agree with the single-event
reference encoder, and the bulk chunk decoder with the single-event
reference decoder, on every input; no damaged trace may raise anything
but a TraceFormatError.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmrr import (EVENT_SIZE, EventType, Execution, MemorySink, TraceEvent, bench, tracefile,
                  tracing)
from cmrr.errors import TraceFormatError
from cmrr.events import decode_event, encode_event, pack_event
from cmrr.tracefile import decode_columns, parse_trace_bytes
from cmrr.tracing import RecordBuffer

_REGISTERED = sorted(int(t) for t in EventType)
_U64 = st.integers(0, 2**64 - 1)

events = st.lists(st.builds(TraceEvent, st.sampled_from(_REGISTERED), _U64), max_size=40)
# Chunks in file order; each activity's events are its chunks concatenated.
chunkings = st.lists(st.tuples(st.integers(0, 3), events), max_size=8)


def _file(chunks):
    sink = MemorySink()
    for activity_id, payload in chunks:
        sink.submit(activity_id, payload)
    return sink.as_bytes()


def _reference_decode(payload):
    return [decode_event(payload[i:i + EVENT_SIZE])
            for i in range(0, len(payload), EVENT_SIZE)]


@pytest.mark.parametrize("threshold", [9, 27, 45, 4096])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_buffer_chunks_match_reference_encoder(threshold, data):
    per_chunk = -(-threshold // EVENT_SIZE)
    count = data.draw(st.integers(0, 3 * per_chunk + 2), label="events")
    # tags as plain ints and as EventType members, which callers pass too;
    # a long run repeats a drawn cycle, so that a failure shrinks quickly
    tags = st.sampled_from(_REGISTERED + list(EventType))
    cycle = data.draw(st.lists(st.tuples(tags, _U64), min_size=1, max_size=60))
    pairs = [cycle[i % len(cycle)] for i in range(count)]
    sink = MemorySink()
    with mock.patch.object(tracing, "FLUSH_THRESHOLD", threshold):
        buffer = RecordBuffer(2, sink)
    for event_type, word in pairs:
        buffer.put(event_type, word)

    reference = [encode_event(TraceEvent(event_type, word)) for event_type, word in pairs]
    flushed = count // per_chunk * per_chunk
    assert sink.chunks == [(2, b"".join(reference[first:first + per_chunk]))
                           for first in range(0, flushed, per_chunk)]
    rest = b"".join(reference[flushed:])
    assert buffer.snapshot() == rest
    assert len(buffer) == len(rest)
    buffer.flush()
    assert sink.chunks[flushed // per_chunk:] == ([(2, rest)] if rest else [])
    assert len(buffer) == 0


@settings(max_examples=150, deadline=None)
@given(chunkings)
def test_bulk_parse_matches_per_event_reference(chunks):
    encoded = [(aid, b"".join(encode_event(e) for e in evs)) for aid, evs in chunks]
    expected: dict[int, list] = {}
    payloads: dict[int, bytes] = {}
    for aid, payload in encoded:
        expected.setdefault(aid, []).extend(_reference_decode(payload))
        payloads[aid] = payloads.get(aid, b"") + payload

    trace = parse_trace_bytes(_file(encoded))

    assert trace.chunk_count == len(chunks)
    assert set(trace.queues) == set(expected)
    for aid, queue in trace.queues.items():
        parsed = queue.events
        assert list(parsed) == expected[aid]
        assert all(type(e) is TraceEvent for e in parsed)
        assert b"".join(encode_event(e) for e in parsed) == payloads[aid]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), _U64), max_size=30))
def test_payload_tag_check_matches_reference(pairs):
    # tags 0 and 13-15 are unregistered
    payload = b"".join(pack_event(tag, data) for tag, data in pairs)
    bad = [i for i, (tag, _) in enumerate(pairs) if tag not in _REGISTERED]
    if not bad:
        tags, words = decode_columns(payload)
        assert list(zip(tags, words)) == _reference_decode(payload)
        return
    with pytest.raises(TraceFormatError, match=f"at event {bad[0]}$"):
        decode_columns(payload)
    with pytest.raises(TraceFormatError):
        _reference_decode(payload)


def test_huge_chunk_parses_in_bounded_blocks():
    """A chunk far beyond a record buffer's size, as a damaged file may
    declare, parses in blocks: no struct format for the whole chunk is
    compiled, and the cache of compiled formats stays small."""
    count = 200_000
    payload = b"".join(pack_event(EventType.LOCK, i) for i in range(count))
    tracefile._word_unpacker.cache_clear()
    with mock.patch.object(tracefile, "_word_unpacker",
                           wraps=tracefile._word_unpacker) as compiled:
        trace = parse_trace_bytes(_file([(3, payload)]))
    queue = trace.queues[3]
    assert len(queue) == count
    assert queue.expect(EventType.LOCK) == 0
    assert list(queue)[-1] == (EventType.LOCK, count - 1)
    assert max(call.args[0] for call in compiled.call_args_list) == tracefile.DECODE_BLOCK
    cache = tracefile._word_unpacker.cache_info()
    assert cache.currsize <= cache.maxsize <= 8


def test_a_repeated_run_compiles_no_format_again(tmp_path):
    """Recording and replaying philosophers-locks packs and decodes full
    chunks, the philosophers' shorter last chunks and the main activity's
    spawns: three formats each way. Each direction keeps its own formats,
    so once one run has compiled them the next compiles none."""
    path = str(tmp_path / "phil.trc")
    caches = (tracing._packer, tracefile._word_unpacker)

    def record_and_replay():
        for mode in ("record", "replay"):
            bench.run_benchmark("philosophers-locks", mode, trace_path=path,
                                params={"rounds": 250})
        return [cache.cache_info().misses for cache in caches]

    assert record_and_replay() == record_and_replay()


@functools.cache
def _small_recorded_trace() -> bytes:
    # all four models, flushed every five events so the trace has many chunks
    spec = bench.REGISTRY["sales-pipeline"]
    sink = MemorySink()
    params = dict(spec.defaults, records=12, projects=3)
    with mock.patch.object(tracing, "FLUSH_THRESHOLD", 45):
        Execution("record", sink=sink).run(spec.func, params)
    return sink.as_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_trace_parses_or_raises_trace_format_error(data):
    raw = bytearray(_small_recorded_trace())
    raw = raw[:data.draw(st.integers(0, len(raw)), label="kept octets")]
    flips = data.draw(st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)),
                               max_size=4), label="flips")
    for position, mask in flips:
        if raw:
            raw[position % len(raw)] ^= mask
    try:
        parse_trace_bytes(bytes(raw))
    except TraceFormatError:
        pass
