#!/usr/bin/env python3
"""Record every benchmark with one cmrr source tree and replay it with another.

Usage: python tools/crossversion.py RECORD_SRC REPLAY_SRC [BENCHMARK ...]

RECORD_SRC and REPLAY_SRC are ``src`` directories, each holding a
``cmrr`` package. Each benchmark (all of them when none is named) is
recorded under both actor strategies, at the small parameters of the test
suite and with perturbation seed 1, by the RECORD_SRC tree; the REPLAY_SRC
tree replays each trace. Every run is its own subprocess. A case passes
when the replay's digest, outputs and actor logs equal the recording's,
so a change that keeps the trace format and every digest passes in both
directions against its parent. Prints one line per case and exits 1 on
any mismatch or failed run, 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

# Equal to ``SMALL_PARAMS`` in tests/test_primitives.py; a test checks it.
PARAMS = {
    "philosophers-locks": {"rounds": 20},
    "philosophers-stm": {"rounds": 20},
    "philosophers-csp": {"rounds": 20},
    "pingpong-actors": {"rounds": 40},
    "counting-actors": {"count": 60},
    "fj-creation-actors": {"fanout": 3, "depth": 2},
    "sales-pipeline": {"records": 12, "projects": 2},
}
STRATEGIES = ("sender", "receiver")
RECORD_SEED = 1
RUN_TIMEOUT_S = 300

# One run: argv is src, benchmark, mode, strategy, trace path, params.
_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cmrr import bench
src, name, mode, strategy, path, params = sys.argv[1:]
options = {"strategy": strategy, "seed": %d} if mode == "record" else {}
result = bench.run_benchmark(name, mode, params=json.loads(params), trace_path=path, **options)
print(json.dumps({"digest": result.digest, "outputs": result.outputs,
                  "actor_logs": result.actor_logs}, sort_keys=True, default=repr))
""" % RECORD_SEED


def run_one(src: str, name: str, mode: str, strategy: str, path: str) -> dict:
    """Run one benchmark in a subprocess on ``src``; its result as a dict,
    or ``{"error": ...}`` when the run failed."""
    argv = [sys.executable, "-c", _RUN, src, name, mode, strategy, path,
            json.dumps(PARAMS[name])]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=os.path.dirname(path))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} timed out after {RUN_TIMEOUT_S} s"}
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
        return {"error": f"{mode} failed: {lines[-1]}"}
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    record_src, replay_src = (os.path.abspath(src) for src in argv[:2])
    names = argv[2:] or list(PARAMS)
    for src in (record_src, replay_src):
        if not os.path.isfile(os.path.join(src, "cmrr", "__init__.py")):
            print(f"crossversion: no cmrr package in {src}", file=sys.stderr)
            return 2
    unknown = [name for name in names if name not in PARAMS]
    if unknown:
        print(f"crossversion: unknown benchmark {', '.join(unknown)}; "
              f"known: {', '.join(PARAMS)}", file=sys.stderr)
        return 2

    equal = cases = 0
    with tempfile.TemporaryDirectory(prefix="crossversion-") as tmp:
        for name in names:
            for strategy in STRATEGIES:
                path = os.path.join(tmp, f"{name}-{strategy}.trc")
                recorded = run_one(record_src, name, "record", strategy, path)
                replayed = (run_one(replay_src, name, "replay", strategy, path)
                            if "error" not in recorded else recorded)
                cases += 1
                if "error" in replayed:
                    verdict = replayed["error"]
                else:
                    differ = [key for key in ("digest", "outputs", "actor_logs")
                              if recorded[key] != replayed[key]]
                    verdict = ("MISMATCH in " + ", ".join(differ) if differ
                               else f"ok, digest {recorded['digest'][:16]}")
                    equal += not differ
                print(f"{name} {strategy}: {verdict}", flush=True)
    print(f"{equal}/{cases} cases equal (record {record_src}, replay {replay_src})")
    return 0 if equal == cases else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
