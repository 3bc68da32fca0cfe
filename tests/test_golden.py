"""Replay of golden traces: trace files and digests recorded by an older
version of cmrr.

Each trace in ``tests/data/golden`` was recorded once, with perturbation
seed 0, and ``golden.json`` keeps the benchmark, strategy, parameters and
digest of that recording. Replaying it with the current code must reach
the same digest, which shows that the v1 trace format and the digest stay
compatible with older code, not only with themselves.
"""

import json
import os

import pytest

from cmrr import bench, parse_trace

_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")
with open(os.path.join(_DIR, "golden.json")) as _fh:
    _CASES = json.load(_fh)


@pytest.mark.parametrize("case", _CASES, ids=[c["trace"] for c in _CASES])
def test_golden_trace_replays_to_its_recorded_digest(case):
    path = os.path.join(_DIR, case["trace"])
    assert parse_trace(path).strategy.name == f"{case['strategy'].upper()}_SIDE"
    result = bench.run_benchmark(case["benchmark"], "replay", trace_path=path,
                                 params=case["params"], watchdog_seconds=10.0)
    assert result.digest == case["digest"]
