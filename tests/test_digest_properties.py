"""Property test of the run digest's bytes.

``Execution.compute_digest`` formats each entity's log as bytes, in
slices of ``DIGEST_SLICE`` entries. It must hash exactly the bytes of the
reference below, one f-string per log entry, so that every digest stays
comparable across versions.
"""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cmrr import Channel, EventType, Execution, ExecutionMode, VersionedEntity
from cmrr.runtime import DIGEST_SLICE

_U64 = st.integers(0, 2**64 - 1)
# The runtime logs plain int tags; a caller of ``note`` may pass EventType
# members, which must hash alike.
_TYPES = list(EventType) + [int(t) for t in EventType]
entries = st.tuples(_U64, st.sampled_from(_TYPES), _U64)
# One entity per item: whether it is a channel, and its log.
entity_logs = st.lists(st.tuples(st.booleans(), st.lists(entries, max_size=12)),
                       max_size=6)


def _reference_digest(ex, outputs):
    h = hashlib.sha256()
    h.update(json.dumps(outputs, sort_keys=True, default=repr).encode())
    for entity in sorted(ex.entities, key=lambda e: e.entity_id):
        h.update(f"\n#{entity.kind}{entity.entity_id}".encode())
        for activity_id, event_type, data in entity.digest_lines():
            h.update(f"|{activity_id},{int(event_type)},{data}".encode())
    return h.hexdigest()


@settings(max_examples=150, deadline=None)
@given(entity_logs, st.lists(_U64, max_size=3))
def test_digest_bytes_match_the_per_entry_reference(logs, outputs):
    def program():
        for is_channel, log in logs:
            entity = Channel() if is_channel else VersionedEntity()
            for activity_id, event_type, data in log:
                entity.note(activity_id, event_type, data)
        return outputs

    ex = Execution(ExecutionMode.PASSIVE)
    result = ex.run(program)
    assert result.digest == _reference_digest(ex, outputs)


def test_digest_of_logs_longer_than_a_slice_matches_the_reference():
    """A channel and a plain entity of 10,000 entries each: several slices,
    the last one partial."""
    assert 10_000 > 2 * DIGEST_SLICE and 10_000 % DIGEST_SLICE
    rng = random.Random(14)

    def program():
        for entity in (Channel(), VersionedEntity()):
            for _ in range(10_000):
                entity.note(rng.getrandbits(16), rng.choice(_TYPES), rng.getrandbits(64))
        return "done"

    ex = Execution(ExecutionMode.PASSIVE)
    result = ex.run(program)
    assert result.digest == _reference_digest(ex, "done")


@st.composite
def _run_shaped_logs(draw):
    """A channel log as a run leaves it: one read and one write per
    version, each kind in version order, the two kinds merged at random.
    Sometimes both kinds take the versions in another order, as no run
    logs them."""
    versions = draw(st.integers(0, 8))
    order = list(range(versions))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    kinds = draw(st.permutations([EventType.CHANNEL_READ] * versions
                                 + [EventType.CHANNEL_WRITE] * versions))
    seen = {EventType.CHANNEL_READ: 0, EventType.CHANNEL_WRITE: 0}
    log = []
    for kind in kinds:
        log.append((draw(st.integers(0, 3)), int(kind), order[seen[kind]]))
        seen[kind] += 1
    return log


_small_entries = st.tuples(st.integers(0, 3), st.sampled_from(_TYPES), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_run_shaped_logs(), st.lists(_small_entries, max_size=12)))
def test_channel_digest_order_is_version_type_activity(log):
    """A channel's digest lines are its entries in (version, type,
    activity) order, and the digest hashes them in that order."""
    def program():
        channel = Channel()
        for activity_id, event_type, data in log:
            channel.note(activity_id, event_type, data)
        return channel.digest_lines()

    ex = Execution(ExecutionMode.PASSIVE)
    result = ex.run(program)
    assert result.outputs == sorted(log, key=lambda entry: (entry[2], entry[1], entry[0]))
    assert result.digest == _reference_digest(ex, result.outputs)
