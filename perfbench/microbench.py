"""Layer microbenchmarks, timed outside the benchmark's timed loop.

Each one drives a single substrate step through cmrr's public API and
reports the minimum, over ``ROUNDS`` batches, of the time per operation.
The rounds interleave the microbenchmarks, so each one samples the whole
span of the measurement. The minimum is reported because the machine's
speed drifts between levels about 1.5x apart within seconds, and the
fastest batch reads the fast level whenever the run sees it. The times include the
cost of the Python loop around the call, which is the same on every
commit.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

from cmrr import (
    Activity,
    ActivityKind,
    DiscardSink,
    EventType,
    Execution,
    MemorySink,
    RecordBuffer,
    VersionedEntity,
    delay_interaction,
    increment_version,
)
from cmrr.events import pack_event
from cmrr.tracefile import parse_trace_bytes

ROUNDS = 15
OPS = 20_000

MICRO_UNITS = {
    "tracing.put_ns": "ns",
    "events.pack_ns": "ns",
    "tracefile.parse_ns_per_event": "ns/event",
    "tracing.increment_ns": "ns",
    "tracing.delay_ns": "ns",
    "runtime.digest_ns_per_entry": "ns/entry",
}


def _synthetic_trace(activities: int, events_each: int, data=lambda i: i) -> bytes:
    sink = MemorySink()
    for activity_id in range(activities):
        buf = RecordBuffer(activity_id, sink)
        for i in range(events_each):
            buf.put(EventType.CHANNEL_WRITE, data(i))
        buf.flush()
    return sink.as_bytes()


def _put():
    put = RecordBuffer(0, DiscardSink()).put

    def batch():
        for i in range(OPS):
            put(EventType.LOCK, i)

    return batch


def _pack():
    def batch():
        for i in range(OPS):
            pack_event(EventType.LOCK, i)

    return batch


def _increment():
    entity = VersionedEntity(execution=Execution("record", sink="discard"))

    def batch():
        for _ in range(OPS):
            increment_version(entity)

    return batch


def _delay(trace_path: str):
    # Every event carries version 0 and nothing increments the entity, so
    # each delay finds its turn at once: the uncontended replay gate.
    execution = Execution("replay", trace_path=trace_path)
    main = Activity(execution, 0, ActivityKind.THREAD, name="main")
    entity = VersionedEntity(execution=execution)

    def batch():
        for _ in range(OPS):
            delay_interaction(main, entity, EventType.CHANNEL_WRITE)

    return batch


def _digest(entities: int, entries_each: int):
    execution = Execution("passive")
    for _ in range(entities):
        entity = VersionedEntity(execution=execution)
        for i in range(entries_each):
            entity.note(1, EventType.LOCK, i)
    return lambda: execution.compute_digest(None)


def run_microbenchmarks(tmpdir: str) -> dict[str, float]:
    trace = _synthetic_trace(5, 2_000)
    delay_trace = os.path.join(tmpdir, "delay.trc")
    with open(delay_trace, "wb") as fh:
        fh.write(_synthetic_trace(1, OPS, data=lambda i: 0))
    # name: (prepare, ops); prepare() builds one batch outside the timing.
    benches = {
        "tracing.put_ns": (_put, OPS),
        "events.pack_ns": (_pack, OPS),
        "tracefile.parse_ns_per_event": (lambda: lambda: parse_trace_bytes(trace), 5 * 2_000),
        "tracing.increment_ns": (_increment, OPS),
        "tracing.delay_ns": (lambda: _delay(delay_trace), OPS),
        "runtime.digest_ns_per_entry": (lambda: _digest(50, 200), 50 * 200),
    }
    best = dict.fromkeys(benches, float("inf"))
    for _ in range(ROUNDS):
        for name, (prepare, ops) in benches.items():
            batch = prepare()
            start = perf_counter_ns()
            batch()
            best[name] = min(best[name], (perf_counter_ns() - start) / ops)
    return best
