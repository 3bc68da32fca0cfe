"""Replay of golden traces: trace files and run results recorded by an older
version of cmrr.

``tests/data/golden`` holds one trace for each registered benchmark under
each actor strategy, recorded once with perturbation seed 0 and small
parameters. ``golden.json`` keeps, per trace, the benchmark, strategy,
parameters and digest of that recording, the outputs of the run and the
sha256 of its ``actor_logs`` (see ``_actor_logs_sha256``). Replaying a
trace with the current code must reach all three, which shows that the v1
trace format, the digest and the replayed behaviour stay compatible with
older code, not only with themselves.
"""

import hashlib
import json
import os

import pytest

from cmrr import bench, parse_trace

_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")
with open(os.path.join(_DIR, "golden.json")) as _fh:
    _CASES = json.load(_fh)


def _actor_logs_sha256(actor_logs: dict) -> str:
    """The sha256 of the actor logs as JSON, sorted by actor id: a list of
    ``[actor id, [[sender id, seq], ...]]`` pairs."""
    return hashlib.sha256(json.dumps(sorted(actor_logs.items())).encode()).hexdigest()


def test_golden_traces_cover_every_benchmark_and_strategy():
    cases = {(c["benchmark"], c["strategy"]) for c in _CASES}
    assert cases == {(name, s) for name in bench.REGISTRY for s in ("sender", "receiver")}


@pytest.mark.parametrize("case", _CASES, ids=[c["trace"] for c in _CASES])
def test_golden_trace_replays_to_its_recorded_digest(case):
    path = os.path.join(_DIR, case["trace"])
    assert parse_trace(path).strategy.name == f"{case['strategy'].upper()}_SIDE"
    result = bench.run_benchmark(case["benchmark"], "replay", trace_path=path,
                                 params=case["params"], watchdog_seconds=10.0)
    assert result.digest == case["digest"]
    assert json.loads(json.dumps(result.outputs)) == case["outputs"]
    assert _actor_logs_sha256(result.actor_logs) == case["actor_logs_sha256"]
