"""The traced benchmark's counting wrappers still see every gate primitive.

``perfbench/layertrace.py`` wraps the substrate functions at each of their
module bindings; a traced run fails when a counter it expects to move
reads zero. These tests install those wrappers around small CSP, timed-wait
and actor records and replays, so a refactor that routes around a wrapped
function fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from cmrr import Execution, ExecutionMode, bench

_LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_counts_csp_gate_primitives(tmp_path):
    layertrace = _load_layertrace()
    path = str(tmp_path / "csp.trc")
    params = {"philosophers": 3, "rounds": 10}
    trace = layertrace.LayerTrace()
    trace.install()
    try:
        bench.run_benchmark("philosophers-csp", "record", trace_path=path, params=params)
        recorded = trace.take()["count"]
        bench.run_benchmark("philosophers-csp", "replay", trace_path=path, params=params)
        replayed = trace.take()["count"]
    finally:
        trace.uninstall()
    assert recorded["record"] > 0
    for key in ("delay", "wait", "blocked", "increment"):
        assert replayed[key] > 0, key


def test_layer_trace_wraps_timed_waits(tmp_path):
    """No benchmark workload makes a timed wait, so this is what checks that
    its ``watchdog_wait`` calls still fit the wrapper's signature."""
    from test_locks import _timeout_program

    layertrace = _load_layertrace()
    path = str(tmp_path / "timeout.trc")
    trace = layertrace.LayerTrace()
    trace.install()
    try:
        recorded = Execution(ExecutionMode.RECORD, trace_path=path).run(_timeout_program)
        recorded_counts = trace.take()["count"]
        replayed = Execution(ExecutionMode.REPLAY, trace_path=path,
                             watchdog_seconds=3.0).run(_timeout_program)
        replayed_counts = trace.take()["count"]
    finally:
        trace.uninstall()
    assert recorded.outputs == replayed.outputs == {"outcomes": [True, False]}
    assert replayed.digest == recorded.digest
    assert recorded_counts["wait"] > 0
    assert replayed_counts["wait"] > 0


@pytest.mark.parametrize("bench_name, strategy, params", [
    ("counting-actors", "sender", {"count": 50}),
    ("pingpong-actors", "receiver", {"rounds": 20}),
], ids=["sender", "receiver"])
def test_layer_trace_counts_actor_wrappers(tmp_path, bench_name, strategy, params):
    """The actor counters (``actors.sends``, ``actors.slices``,
    ``actors.msgs_per_slice``) come from wrappers of ``enqueue``,
    ``run_slice`` and ``note_processed``; every message must pass all of
    them under either strategy."""
    layertrace = _load_layertrace()
    path = str(tmp_path / f"{bench_name}.trc")
    trace = layertrace.LayerTrace()
    trace.install()
    try:
        bench.run_benchmark(bench_name, "record", strategy=strategy, trace_path=path,
                            params=params)
        recorded = trace.take()["count"]
        bench.run_benchmark(bench_name, "replay", trace_path=path, params=params,
                            watchdog_seconds=5)
        replayed = trace.take()["count"]
    finally:
        trace.uninstall()
    for counts in (recorded, replayed):
        assert counts["send"] > 0
        assert counts["slice"] > 0
        assert counts["processed"] == counts["send"]
