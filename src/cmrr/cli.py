"""Command-line harness: run benchmarks, inspect traces.

Subcommands:
  run   execute a benchmark in passive/record/replay mode, print its digest
  dump  print every event of a trace, per activity
  stats print per-activity and per-type event counts and octet totals

Exit codes: 0 success, 2 usage or trace error, 3 replay divergence (type
mismatch, deadlock watchdog, leftover events); each error prints one line.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import bench
from .errors import ReplayError, TraceFormatError, UsageError
from .events import EVENT_SIZE, EventType
from .tracefile import CHUNK_HEADER_SIZE, HEADER_SIZE, parse_trace
from .tracing import DEFAULT_WATCHDOG_SECONDS

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_DIVERGENCE = 3


def _parse_params(pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--params expects key=value, got {pair!r}")
    return dict(pair.split("=", 1) for pair in pairs)


def _cmd_run(args) -> int:
    result = bench.run_benchmark(
        args.benchmark,
        mode=args.mode,
        strategy=args.strategy,
        trace_path=args.trace,
        sink=args.sink,
        seed=args.seed,
        params=_parse_params(args.params),
        watchdog_seconds=args.watchdog,
        pool_size=args.pool,
    )
    print(f"benchmark {args.benchmark}")
    print(f"mode {result.mode.value}")
    print(f"strategy {result.strategy.name.lower()}")
    print(f"outputs {result.outputs}")
    print(f"digest {result.digest}")
    return EXIT_OK


def _cmd_dump(args) -> int:
    trace = parse_trace(args.trace)
    print(f"file {args.trace}")
    print(f"format_version {trace.format_version}")
    print(f"strategy {trace.strategy.name.lower()}")
    for activity_id in sorted(trace.queues):
        queue = trace.queues[activity_id]
        print(f"activity {activity_id} events {len(queue)}")
        for index, event in enumerate(queue.events):
            print(f"  [{index}] {event.type_name} data={event.data}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    trace = parse_trace(args.trace)
    per_activity = {activity_id: Counter(ev.event_type for ev in queue.events)
                    for activity_id, queue in trace.queues.items()}
    totals = sum(per_activity.values(), Counter())
    event_total = sum(totals.values())
    framing = HEADER_SIZE + CHUNK_HEADER_SIZE * trace.chunk_count
    print(f"file {args.trace}")
    print(f"format_version {trace.format_version}")
    print(f"strategy {trace.strategy.name.lower()}")
    print(f"activities {len(trace.queues)}")
    print(f"chunks {trace.chunk_count}")
    print(f"events_total {event_total}")
    print(f"octets_events {event_total * EVENT_SIZE}")
    print(f"octets_framing {framing}")
    print(f"octets_total {trace.file_size}")
    for activity_id in sorted(per_activity):
        counts = per_activity[activity_id]
        breakdown = " ".join(
            f"{EventType(t).name}={counts[t]}" for t in sorted(counts)
        )
        print(f"activity {activity_id} events {sum(counts.values())} {breakdown}")
    for event_type in sorted(totals):
        print(f"type {EventType(event_type).name} count {totals[event_type]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmrr",
        description="record, replay, and inspect multi-model concurrent benchmark runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a benchmark")
    run_p.add_argument("benchmark", help="registered benchmark name")
    run_p.add_argument("--mode", choices=["passive", "record", "replay"],
                       default="passive")
    run_p.add_argument("--strategy", choices=["sender", "receiver"], default=None,
                       help="actor recording strategy (replay takes it from the trace)")
    run_p.add_argument("--trace", default=None, help="trace file path")
    run_p.add_argument("--sink", choices=["file", "discard"], default="file",
                       help="where recorded chunks go")
    run_p.add_argument("--seed", type=int, default=None,
                       help="scheduling-perturbation seed")
    run_p.add_argument("--params", action="append", default=[], metavar="KEY=VALUE",
                       help="benchmark parameter override (repeatable)")
    run_p.add_argument("--watchdog", type=float, default=DEFAULT_WATCHDOG_SECONDS,
                       help="replay no-progress watchdog in seconds")
    run_p.add_argument("--pool", type=int, default=None, help="actor pool size")
    run_p.set_defaults(func=_cmd_run)

    dump_p = sub.add_parser("dump", help="print all events of a trace")
    dump_p.add_argument("trace")
    dump_p.set_defaults(func=_cmd_dump)

    stats_p = sub.add_parser("stats", help="print per-activity/per-type counts")
    stats_p.add_argument("trace")
    stats_p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceFormatError as exc:
        print(f"trace format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ReplayError as exc:
        print(f"replay divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
