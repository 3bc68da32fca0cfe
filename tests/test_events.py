import random

import pytest

from cmrr import EVENT_SIZE, EventType, TraceEvent, decode_event, encode_event, events
from cmrr.errors import TraceFormatError


def test_registry_values_are_frozen():
    assert {t.name: int(t) for t in EventType} == {
        "LOCK": 1,
        "AWAIT_SIGNALED": 2,
        "AWAIT_TIMEOUT": 3,
        "MSG_SEND": 4,
        "PROMISE_RESOLVE": 5,
        "PROMISE_MSG_STORE": 6,
        "CHANNEL_READ": 7,
        "CHANNEL_WRITE": 8,
        "TX_COMMIT": 9,
        "MSG_RCVD": 10,
        "PROMMSG_RCVD": 11,
        "ACTIVITY_SPAWN": 12,
    }


def test_tag_constants_match_the_registry():
    """The plain-int tags in ``events`` are unpacked from ``EventType`` in
    order: each must equal the member of its name, and they cover them all."""
    constants = {name: value for name, value in vars(events).items()
                 if name.isupper() and type(value) is int and name != "EVENT_SIZE"}
    assert constants == {t.name: t.value for t in EventType}


def test_encode_tx_commit_example():
    raw = encode_event(TraceEvent(EventType.TX_COMMIT, 7))
    assert raw == bytes([0x09, 0x07, 0, 0, 0, 0, 0, 0, 0])
    assert len(raw) == EVENT_SIZE == 9


def test_encode_little_endian_placement():
    raw = encode_event(TraceEvent(EventType.LOCK, 2**32))
    assert raw == bytes([0x01, 0, 0, 0, 0, 0x01, 0, 0, 0])


def test_decode_rejects_tag_zero_and_unregistered():
    with pytest.raises(TraceFormatError):
        decode_event(bytes([0]) + bytes(8))
    with pytest.raises(TraceFormatError):
        decode_event(bytes([200]) + bytes(8))


def test_decode_rejects_wrong_length():
    with pytest.raises(TraceFormatError):
        decode_event(bytes(8))
    with pytest.raises(TraceFormatError):
        decode_event(bytes(10))


def test_event_constructor_validates():
    with pytest.raises(TraceFormatError):
        TraceEvent(0, 0)
    with pytest.raises(TraceFormatError):
        TraceEvent(13, 0)
    with pytest.raises(TraceFormatError):
        TraceEvent(int(EventType.LOCK), 2**64)


def test_round_trip_random_events():
    rng = random.Random(0xC0FFEE)
    types = list(EventType)
    for _ in range(10_000):
        event = TraceEvent(int(rng.choice(types)), rng.getrandbits(64))
        raw = encode_event(event)
        assert len(raw) == 9
        assert decode_event(raw) == event
