"""Uniform trace event format and its codec.

Every nondeterministic interaction is recorded as one fixed-size event:
a 1-octet type tag followed by an 8-octet data word whose interpretation
is local to the event type (usually an entity version counter, sometimes
an identity or a sequence number). All multi-octet integers are
little-endian. Tag 0 is reserved as padding/invalid and never written.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from enum import IntEnum
from functools import lru_cache

from .errors import TraceFormatError

EVENT_SIZE = 9

_EVENT_STRUCT = struct.Struct("<BQ")

# Compiled whole-chunk formats by event count: the record buffer's packer and
# the chunk decoder's word unpacker. Each direction has its own bounded cache,
# so one direction's short last chunks never push out the other's formats.
_packer = lru_cache(maxsize=4)(lambda events: struct.Struct("<" + "BQ" * events))
_word_unpacker = lru_cache(maxsize=4)(lambda events: struct.Struct("<" + "xQ" * events))


class EventType(IntEnum):
    """Registry of event type tags.

    Numeric values are part of the trace format and are never reused
    or renumbered across releases of the same format version.
    """

    LOCK = 1
    AWAIT_SIGNALED = 2
    AWAIT_TIMEOUT = 3
    MSG_SEND = 4
    PROMISE_RESOLVE = 5
    PROMISE_MSG_STORE = 6
    CHANNEL_READ = 7
    CHANNEL_WRITE = 8
    TX_COMMIT = 9
    MSG_RCVD = 10
    PROMMSG_RCVD = 11
    ACTIVITY_SPAWN = 12


# The hot paths read tags as these plain ints: ``EventType.X`` is a lookup
# through the enum metaclass (about 0.19 us a read on CPython 3.11), and a
# log of plain ints formats faster into the run digest than enum members.
(LOCK, AWAIT_SIGNALED, AWAIT_TIMEOUT, MSG_SEND, PROMISE_RESOLVE, PROMISE_MSG_STORE,
 CHANNEL_READ, CHANNEL_WRITE, TX_COMMIT, MSG_RCVD, PROMMSG_RCVD,
 ACTIVITY_SPAWN) = map(int, EventType)

_VALID_TAGS = frozenset(int(t) for t in EventType)
# The same tags as octets: deleting them from a chunk's tag octets
# (``bytes.translate``) leaves exactly the unregistered ones.
_VALID_TAG_OCTETS = bytes(sorted(_VALID_TAGS))


class TraceEvent(namedtuple("TraceEvent", "event_type data")):
    """One recorded event: type tag plus a 64-bit data word."""

    __slots__ = ()

    def __new__(cls, event_type: int, data: int):
        if not isinstance(event_type, int) or event_type not in _VALID_TAGS:
            raise TraceFormatError(f"unregistered event tag {event_type!r}")
        if not isinstance(data, int):
            raise TraceFormatError(f"event data {data!r} is not an integer")
        if not 0 <= data < 1 << 64:
            raise TraceFormatError(f"event data {data} outside u64 range")
        return tuple.__new__(cls, (event_type, data))

    @property
    def type_name(self) -> str:
        return EventType(self.event_type).name


# Encode one event without building a TraceEvent or checking its tag. The
# record buffer packs whole chunks instead (``RecordBuffer.flush``).
pack_event = _EVENT_STRUCT.pack


def encode_event(event: TraceEvent) -> bytes:
    """Serialize an event to its 9-octet wire form."""
    return pack_event(*event)


def decode_event(raw: bytes) -> TraceEvent:
    """Parse exactly 9 octets into a TraceEvent; the reference for
    ``tracefile.decode_columns``. Rejects tag 0 and unregistered tags."""
    if len(raw) != EVENT_SIZE:
        raise TraceFormatError(f"event must be {EVENT_SIZE} octets, got {len(raw)}")
    return TraceEvent(*_EVENT_STRUCT.unpack(raw))


def describe(event: tuple[int, int]) -> str:
    """``NAME(data=N)`` for a ``(type, data)`` pair; every replay error
    names an event this way."""
    return f"{EventType(event[0]).name}(data={event[1]})"
