#!/usr/bin/env python3
"""Record & replay benchmark for cmrr.

Run from the repository root:

    python3 perfbench/run.py --workload csp-forks --seed 1 --seconds 24 --trace 0

The driver runs one workload closed loop: one client (this process) and
one execution in flight. Each iteration runs every program of the
workload three times in a row, ``passive``, then ``record`` to a trace
file, then ``replay`` of that fresh trace, so slow drift of the machine
cancels out of the overhead ratios. Every output is checked against the
program's known answer and every replay digest against its recording.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced iterations alternate; the traced ones run with the
per-layer wrappers of ``layertrace.py`` installed, and the layer
microbenchmarks of ``microbench.py`` run after the timed loop.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import time

DRIVER_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable, Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MODES = ("passive", "record", "replay")
# Replays that diverge end in ReplayDeadlock after this long instead of
# the library's 30 s default, so a broken run still ends well in time.
WATCHDOG_SECONDS = 10.0
# Set-up (inputs plus one warm-up iteration) is repeated this many times
# and its median reported, so one slow warm-up does not decide setup_s.
SETUP_REPEATS = 5
# The reference loop hands a turn between two threads this many times.
REFERENCE_HANDOFFS = 400
# Its time on a 2-CPU Python 3.11.7 machine in the slower of the two
# speeds that machine switches between; an execution's time is scaled by
# this over the mean of the reference times measured just before and just
# after it (see reference_ms).
REFERENCE_NOMINAL_MS = 6.5

END_TO_END_UNITS = {
    "passive_ms": "ms",
    "record_ms": "ms",
    "replay_ms": "ms",
    "record_ms_p75": "ms",
    "replay_ms_p75": "ms",
    "record_overhead": "ratio",
    "replay_overhead": "ratio",
    "events_per_s": "1/s",
    "trace_octets_per_event": "octets/event",
    "setup_s": "s",
}


# -- program inputs and known answers ------------------------------------------


@dataclass(frozen=True)
class Program:
    """One registered cmrr program with fixed inputs and its output check."""

    name: str
    params: dict
    strategy: str
    check: Callable[[dict, dict], Optional[str]]


def check_philosophers(params: dict, out: dict) -> Optional[str]:
    want = [params["rounds"]] * params["philosophers"]
    if out["meals"] != want:
        return f"meals {out['meals']}, want {want}"
    return None


def check_counting(params: dict, out: dict) -> Optional[str]:
    if out["total"] != params["count"]:
        return f"counted {out['total']}, want {params['count']}"
    return None


def expected_sales_totals(records: int, projects: int, feed_seed: int) -> dict:
    """Per-project totals of the sales feed, recomputed from its seed in
    the order the pipeline adds them."""
    rng = random.Random(feed_seed)
    totals = {f"P{i}": 0.0 for i in range(projects)}
    for _ in range(records):
        project = f"P{rng.randrange(projects)}"
        totals[project] += round(rng.uniform(1.0, 100.0), 2)
    return {name: round(total, 2) for name, total in sorted(totals.items())}


def check_sales(params: dict, out: dict) -> Optional[str]:
    want = expected_sales_totals(params["records"], params["projects"], params["feed_seed"])
    if out["records"] != params["records"] or out["totals"] != want:
        return f"sales totals {out['totals']}, want {want}"
    return None


def workload_programs(workload: str, seed: int) -> list[Program]:
    """The programs one iteration of ``workload`` runs.

    Only sales-mixed has random inputs; the seed becomes its feed seed.
    """
    if workload == "csp-forks":
        return [Program("philosophers-csp", {"philosophers": 5, "rounds": 200},
                        "sender", check_philosophers)]
    if workload == "actor-flood":
        return [Program("counting-actors", {"count": 6000}, "sender", check_counting)]
    if workload == "lock-stm-phil":
        return [
            Program("philosophers-locks", {"philosophers": 5, "rounds": 600},
                    "sender", check_philosophers),
            Program("philosophers-stm", {"philosophers": 5, "rounds": 300},
                    "sender", check_philosophers),
        ]
    if workload == "sales-mixed":
        return [Program("sales-pipeline",
                        {"records": 300, "projects": 8, "feed_seed": seed},
                        "receiver", check_sales)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("csp-forks", "actor-flood", "lock-stm-phil", "sales-mixed")


# -- one iteration ----------------------------------------------------------------


def reference_ms() -> float:
    """Wall time of a fixed handoff loop between two threads, in ms.

    The machine's speed switches between levels about 1.4x apart within
    seconds and drifts over minutes, and the programs' wall times follow
    it. Their cost is mostly thread handoffs, so a handoff loop that runs
    just before and just after each execution slows down in the same
    proportion. The loop uses only the standard library, so no change to
    cmrr moves it.
    """
    turn = threading.Condition()
    passes = [0]

    def take_turns(parity: int) -> None:
        for _ in range(REFERENCE_HANDOFFS):
            with turn:
                while passes[0] % 2 != parity:
                    turn.wait()
                passes[0] += 1
                turn.notify()

    start = time.perf_counter()
    other = threading.Thread(target=take_turns, args=(1,))
    other.start()
    take_turns(0)
    other.join()
    return (time.perf_counter() - start) * 1e3


@dataclass
class Iteration:
    # Wall time per mode scaled to the reference speed, and as measured.
    ms: dict = field(default_factory=lambda: dict.fromkeys(MODES, 0.0))
    raw_ms: dict = field(default_factory=lambda: dict.fromkeys(MODES, 0.0))
    # Reference loop times, one before each execution and one after the last.
    references: list = field(default_factory=list)
    events: int = 0
    octets: int = 0
    digests: tuple = ()
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # Per-mode layer counts of a traced iteration.
    layers: Optional[dict] = None

    @property
    def wall_ms(self) -> float:
        return sum(self.raw_ms.values())

    @property
    def complete(self) -> bool:
        return self.failed == 0


def trace_size(path: str) -> tuple[int, int]:
    """(events, octets) of a trace file, read from its chunk headers."""
    from cmrr.tracefile import CHUNK_HEADER_SIZE, EVENT_SIZE, HEADER_SIZE

    with open(path, "rb") as fh:
        data = fh.read()
    events, offset = 0, HEADER_SIZE
    while offset < len(data):
        _, payload_len = struct.unpack_from("<QI", data, offset)
        events += payload_len // EVENT_SIZE
        offset += CHUNK_HEADER_SIZE + payload_len
    return events, len(data)


def run_iteration(programs: list[Program], trace_path: str, layer_trace=None) -> Iteration:
    from cmrr import Execution
    from cmrr.bench import REGISTRY

    it = Iteration()
    if layer_trace is not None:
        it.layers = {mode: {"count": Counter(), "ns": Counter()} for mode in MODES}
    digests = []
    gc.collect()
    it.references.append(reference_ms())
    for program in programs:
        func = REGISTRY[program.name].func
        recorded = None
        for step, mode in enumerate(MODES):
            it.attempted += 1
            start = time.perf_counter()
            try:
                execution = Execution(
                    mode,
                    strategy=program.strategy,
                    trace_path=None if mode == "passive" else trace_path,
                    watchdog_seconds=WATCHDOG_SECONDS,
                )
                result = execution.run(func, dict(program.params))
            except Exception as exc:  # noqa: BLE001 - counted as a failed execution
                traceback.print_exc(file=sys.stderr)
                it.failed += len(MODES) - step
                it.attempted += len(MODES) - step - 1
                it.problems.append(f"{program.name} {mode}: {exc!r}")
                break
            elapsed = (time.perf_counter() - start) * 1e3
            it.references.append(reference_ms())
            reference = (it.references[-2] + it.references[-1]) / 2
            it.raw_ms[mode] += elapsed
            it.ms[mode] += elapsed * REFERENCE_NOMINAL_MS / reference
            if layer_trace is not None:
                taken = layer_trace.take()
                for kind in ("count", "ns"):
                    it.layers[mode][kind].update(taken[kind])
            problem = program.check(program.params, result.outputs)
            if mode == "record":
                recorded = result.digest
                digests.append(result.digest)
                events, octets = trace_size(trace_path)
                it.events += events
                it.octets += octets
            elif mode == "replay" and result.digest != recorded:
                problem = f"replay digest {result.digest[:12]} != recorded {recorded[:12]}"
            if problem:
                it.failed += 1
                it.problems.append(f"{program.name} {mode}: {problem}")
    it.digests = tuple(digests)
    return it


# -- measuring ----------------------------------------------------------------------


def p75(values: list) -> float:
    return statistics.quantiles(values, n=4)[2]


def end_to_end_metrics(done: list[Iteration], setup_s: float) -> dict:
    """End-to-end metrics over the complete timed iterations.

    The per-mode times are scaled to the reference speed (see
    ``reference_ms``). The overhead ratios use the times as measured,
    since the three modes of one iteration run within a second of each
    other.
    """
    median = statistics.median
    passive = [it.ms["passive"] for it in done]
    record = [it.ms["record"] for it in done]
    replay = [it.ms["replay"] for it in done]
    raw = {mode: [it.raw_ms[mode] for it in done] for mode in MODES}
    return {
        "passive_ms": median(passive),
        "record_ms": median(record),
        "replay_ms": median(replay),
        "record_ms_p75": p75(record),
        "replay_ms_p75": p75(replay),
        "record_overhead": median([r / p for r, p in zip(raw["record"], raw["passive"])]),
        "replay_overhead": median([r / p for r, p in zip(raw["replay"], raw["passive"])]),
        "events_per_s": median([it.events / (it.ms["record"] / 1e3) for it in done]),
        "trace_octets_per_event": median([it.octets / it.events for it in done]),
        "setup_s": setup_s,
    }


def layer_report(workload: str, timed: list, traced: list, micro: dict,
                 distinct: int, problems: list) -> tuple[dict, dict]:
    """Units and values of the per-layer metrics of a traced run.

    Appends to ``problems`` every counter that reads zero on a workload
    chosen to move it.
    """
    import layertrace
    import microbench

    units = dict(layertrace.LAYER_UNITS, **microbench.MICRO_UNITS,
                 trace_overhead="ratio", distinct_outcomes="count")
    done = [it for it in traced if it.complete]
    untraced = [it for it in timed if it.complete]
    if not done or not untraced:
        problems.append("no complete traced and untraced iteration pair")
        return units, {}
    rows = [layertrace.layer_metrics(it.layers, it.events) for it in done]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in layertrace.LAYER_UNITS}
    metrics.update(micro)
    metrics["trace_overhead"] = (statistics.median(it.wall_ms for it in done)
                                 / statistics.median(it.wall_ms for it in untraced))
    metrics["distinct_outcomes"] = distinct
    for name in layertrace.MOVED_BY[workload]:
        if not metrics[name]:
            problems.append(f"layer counter {name} is zero on {workload}")
    # sales-mixed has one committing activity, so no attempt may fail.
    if workload == "sales-mixed" and metrics["stm.commit_ratio"] != 1.0:
        problems.append(f"stm.commit_ratio {metrics['stm.commit_ratio']} on sales-mixed, want 1.0")
    print(f"# traced iterations {len(done)}, untraced {len(untraced)}")
    return units, metrics


def machine_facts(affinity_before: set) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_before": sorted(affinity_before),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "switchinterval": sys.getswitchinterval(),
    }


def pin_to_one_cpu() -> set:
    """Pin this process (and the threads it starts) to one allowed CPU.

    Unpinned, wall times on a 2-CPU machine switch between regimes about
    2.5x apart within one process; pinned, only the machine's own speed
    drift (about 1.5x, as in a plain Python loop) remains, and the
    recorded races still vary (see README.md).
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    return before


def import_cmrr() -> None:
    if not os.path.isfile(os.path.join(SRC, "cmrr", "__init__.py")):
        raise SystemExit(f"perfbench: cmrr sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import cmrr

    if not os.path.abspath(cmrr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported cmrr from {cmrr.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    affinity_before = pin_to_one_cpu()
    import_cmrr()
    import layertrace
    import microbench

    import_s = time.perf_counter() - DRIVER_START
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# machine {json.dumps(machine_facts(affinity_before))}")

    warmups: list[Iteration] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        trace_path = os.path.join(tmpdir, "run.trc")
        # Each set-up is the time to build the inputs plus the warm-up
        # iteration's executions scaled to the reference speed, like the
        # timed ones; unscaled, its median spread 25 % across runs.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            programs = workload_programs(args.workload, args.seed)
            build_s = time.perf_counter() - start
            warmups.append(run_iteration(programs, trace_path))
            setup_times.append(build_s + sum(warmups[-1].ms.values()) / 1e3)
        setup_s = import_s + statistics.median(setup_times)

        timed: list[Iteration] = []
        traced: list[Iteration] = []
        layer_trace = layertrace.LayerTrace() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            timed.append(run_iteration(programs, trace_path))
            if layer_trace is not None:
                layer_trace.install()
                try:
                    traced.append(run_iteration(programs, trace_path, layer_trace))
                finally:
                    layer_trace.uninstall()
        micro = microbench.run_microbenchmarks(tmpdir) if args.trace else {}

    everything = warmups + timed + traced
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    problems = [p for it in everything for p in it.problems]
    distinct = len({it.digests for it in timed + traced if it.complete})
    if args.trace:
        units, metrics = layer_report(args.workload, timed, traced, micro, distinct, problems)
    else:
        units = END_TO_END_UNITS
        done = [it for it in timed if it.complete]
        metrics = end_to_end_metrics(done, setup_s) if len(done) >= 2 else {}
        print(f"# timed iterations {len(done)}; p75 leaves {len(done) - len(done) * 3 // 4} "
              f"samples above it; import {import_s:.3f} s")
        if done:
            raw = {mode: statistics.median(it.raw_ms[mode] for it in done) for mode in MODES}
            reference = statistics.median(ref for it in done for ref in it.references)
            print(f"# unscaled median ms {json.dumps(raw)}; reference loop median "
                  f"{reference:.3f} ms, nominal {REFERENCE_NOMINAL_MS} ms")

    for name, value in metrics.items():
        print(f"{name:34s} {value:14.4f} {units[name]}")
    print(f"{'failed_ratio':34s} {failed / max(attempted, 1):14.4f} ratio ({failed}/{attempted})")
    if not args.trace:
        print(f"{'distinct_outcomes':34s} {distinct:14d} count")
    for problem in problems:
        print(f"# FAILED {problem}")

    correct = not problems and failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
