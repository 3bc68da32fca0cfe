#!/usr/bin/env python3
"""Time one uncontended ``RRLock`` pair against a ``threading.RLock`` pair.

Usage: python tools/lockpair.py [--pairs N] [--repeats R]

Pins its own process to one allowed CPU, then times batches of N
``with lock: pass`` pairs on one ``RRLock``, taken by the main activity of
a passive and of a recording (discard sink) execution, and batches of N
``with rlock: pass`` pairs on one ``threading.RLock`` in plain Python. The
three batches run in turn, R times (default 7), so a change of the
machine's speed reaches all three alike; each cost is the best batch.
Prints the reference cost, then one line per mode with its cost per pair
in ns and its ratio to the reference. Uses the ``cmrr`` package under
``src`` next to this script and the standard library only.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cmrr import Execution, RRLock  # noqa: E402

REFERENCE = "threading.RLock pair as `with rlock: pass`"


def rlock_batch(pairs: int) -> int:
    """ns for ``pairs`` pairs on one ``threading.RLock``."""
    rlock = threading.RLock()
    start = perf_counter_ns()
    for _ in range(pairs):
        with rlock:
            pass
    return perf_counter_ns() - start


def rrlock_batch(mode: str, pairs: int) -> int:
    """ns for ``pairs`` pairs on one ``RRLock`` in a ``mode`` execution's
    main activity; the lock is made before the clock starts."""

    def program():
        lock = RRLock()
        start = perf_counter_ns()
        for _ in range(pairs):
            with lock:
                pass
        return perf_counter_ns() - start

    return Execution(mode, sink="discard").run(program).outputs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=200_000, help="pairs per batch")
    parser.add_argument("--repeats", type=int, default=7, help="batches per form")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeats < 1:
        parser.error("--pairs and --repeats must be at least 1")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    times = {"reference": [], "passive": [], "record": []}
    for _ in range(args.repeats):
        times["reference"].append(rlock_batch(args.pairs))
        for mode in ("passive", "record"):
            times[mode].append(rrlock_batch(mode, args.pairs))
    ns = {form: min(batches) / args.pairs for form, batches in times.items()}
    print(f"lockpair: {args.pairs} uncontended pairs per batch, best of "
          f"{args.repeats}, pinned to CPU {cpu}")
    print(f"reference: {REFERENCE}: {ns['reference']:.1f} ns")
    for mode in ("passive", "record"):
        print(f"{mode}: RRLock pair as `with lock: pass`: {ns[mode]:.1f} ns, "
              f"{ns[mode] / ns['reference']:.2f}x reference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
