#!/usr/bin/env python3
"""Time plain actor sends, passive, recorded and replayed.

Usage: python tools/sendcost.py [--messages N] [--repeats R]

Pins its own process to one allowed CPU, then times batches in which the
main activity sends N plain messages to one actor that counts them, from
the first send until the actor has counted the last, on a one-worker
actor pool under the sender strategy. A batch runs in a passive, a
recording (discard sink) and a replaying execution; the replay replays a
recording of the same program made once, untimed, before the batches.
The three batches run in turn, R times (default 7), so a change of the
machine's speed reaches all three alike; each cost is the best batch.
Prints one line per mode with its cost per message in ns, and for record
and replay their ratio to passive and what they add to it. Uses the
``cmrr`` package under ``src`` next to this script and the standard
library only.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cmrr import Execution, send, spawn_actor  # noqa: E402
from cmrr.bench.support import CompletionLatch  # noqa: E402


def program(messages: int) -> int:
    """ns from the first of ``messages`` sends to one counting actor until
    it has counted them all; a warm-up message starts the pool's worker
    before the clock does."""
    latch = CompletionLatch(1)
    seen = [0]

    def count(_msg):
        seen[0] += 1
        if seen[0] > messages:
            latch.count_down()

    actor = spawn_actor(count)
    send(actor, 0)
    start = perf_counter_ns()
    for _ in range(messages):
        send(actor, 1)
    latch.wait()
    return perf_counter_ns() - start


def batch(mode: str, messages: int, trace_path: str) -> int:
    """ns for one ``mode`` batch of ``messages`` sends."""
    ex = Execution(mode, strategy=None if mode == "replay" else "sender",
                   sink="discard", trace_path=trace_path, pool_size=1)
    return ex.run(program, messages).outputs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--messages", type=int, default=50_000, help="sends per batch")
    parser.add_argument("--repeats", type=int, default=7, help="batches per mode")
    args = parser.parse_args(argv)
    if args.messages < 1 or args.repeats < 1:
        parser.error("--messages and --repeats must be at least 1")
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    times = {"passive": [], "record": [], "replay": []}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "sendcost.trc")
        Execution("record", strategy="sender", trace_path=trace_path,
                  pool_size=1).run(program, args.messages)
        for _ in range(args.repeats):
            for mode, batches in times.items():
                batches.append(batch(mode, args.messages, trace_path))
    ns = {mode: min(batches) / args.messages for mode, batches in times.items()}
    print(f"sendcost: {args.messages} plain sends to one counting actor per batch, "
          f"best of {args.repeats}, pinned to CPU {cpu}")
    print(f"passive: {ns['passive']:.1f} ns per message")
    for mode in ("record", "replay"):
        print(f"{mode}: {ns[mode]:.1f} ns per message, {ns[mode] / ns['passive']:.2f}x "
              f"passive, {ns[mode] - ns['passive']:+.1f} ns")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
