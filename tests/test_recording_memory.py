"""Recording's heap cost per logged interaction.

Each entity keeps its log as flat machine words, three per interaction,
so recording holds about 24 octets per logged event beyond what a passive
run holds. Peak heap is read with ``tracemalloc``; the bound leaves room
for the run's transient buffers and the digest's slices at these sizes.
"""

import gc
import tracemalloc

import pytest

from cmrr import Execution, bench

BOUND = 60  # octets per log entry


def _peak(mode, spec, params):
    gc.collect()
    execution = Execution(mode, sink="discard") if mode == "record" else Execution(mode)
    tracemalloc.start()
    try:
        execution.run(spec.func, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, execution


@pytest.mark.parametrize("name, params", [
    ("counting-actors", {"count": 20_000}),
    ("philosophers-locks", {"rounds": 500}),
])
def test_record_heap_per_log_entry(name, params):
    spec = bench.REGISTRY[name]
    params = dict(spec.defaults, **params)
    passive, _ = _peak("passive", spec, params)
    recorded, execution = _peak("record", spec, params)
    entries = sum(len(entity.log_entries()) for entity in execution.entities)
    assert entries >= 7_500
    assert (recorded - passive) / entries <= BOUND
