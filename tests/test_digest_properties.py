"""Property tests of the run digest's bytes and order.

``Execution.compute_digest`` formats each entity's log as bytes, in
slices of ``DIGEST_SLICE`` entries. It must hash exactly the bytes of the
reference below, one f-string per log entry in log order, so that every
digest stays comparable across versions. A channel's digest has always
hashed its entries in (version, type, activity) order; a run writes its
log in that order.
"""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cmrr import Channel, EventType, Execution, ExecutionMode, PerturbationPlan, VersionedEntity
from cmrr import bench
from cmrr.runtime import DIGEST_SLICE
from test_channels import _many_to_many_program
from test_primitives import SMALL_PARAMS

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
        for activity_id, event_type, data in entity.log_entries():
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


def _assert_channel_logs_in_digest_order(ex):
    channels = [e for e in ex.entities if e.kind == "channel"]
    for channel in channels:
        entries = channel.log_entries()
        assert entries == sorted(entries, key=lambda entry: (entry[2], entry[1], entry[0]))
    return len(channels)


def test_channel_logs_are_written_in_version_type_activity_order(tmp_path):
    """Every channel log a run leaves is already in (version, type,
    activity) order, so the digest hashes it as it stands: each benchmark
    recorded and replayed under both strategies, and competing channel
    readers and writers under three perturbation seeds."""
    channels = 0
    for name, params in SMALL_PARAMS.items():
        spec = bench.REGISTRY[name]
        params = {**spec.defaults, **params}
        for strategy in ("sender", "receiver"):
            path = str(tmp_path / f"{name}-{strategy}.trc")
            digests = []
            for mode, plan in ((ExecutionMode.RECORD, PerturbationPlan(1)),
                               (ExecutionMode.REPLAY, None)):
                ex = Execution(mode, strategy=strategy, trace_path=path,
                               watchdog_seconds=10.0, perturb=plan)
                result = ex.run(spec.func, params)
                channels += _assert_channel_logs_in_digest_order(ex)
                assert result.digest == _reference_digest(ex, result.outputs)
                digests.append(result.digest)
            assert digests[0] == digests[1], (name, strategy)

    for seed in (21, 22, 23):
        path = str(tmp_path / f"many-{seed}.trc")
        for mode in (ExecutionMode.RECORD, ExecutionMode.REPLAY):
            ex = Execution(mode, trace_path=path, watchdog_seconds=10.0,
                           perturb=PerturbationPlan(seed, prob=0.3))
            result = ex.run(_many_to_many_program, 3, 4, 8)
            channels += _assert_channel_logs_in_digest_order(ex)
            assert result.digest == _reference_digest(ex, result.outputs)
    assert channels > 12
