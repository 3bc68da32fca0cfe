"""Per-layer counters for the traced run.

``LayerTrace.install`` wraps public functions and methods of each cmrr
module from outside the library. A module-level function is replaced at
every binding it has in a loaded ``cmrr`` module, because several are
imported by name (``watchdog_wait`` into ``locks``, ``channels``, ``stm``
and ``actors``; ``parse_trace`` into ``runtime``): patching only the
defining module would leave those call sites unwrapped and their counts
at zero.

Each wrapper adds one to a count and, for timed keys, the call's duration
in nanoseconds. Durations are summed over all threads, so a key's time can
exceed the wall time of the execution. Counts and times are read and reset
per execution with ``take``.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter
from time import perf_counter_ns

from cmrr import stm, tracefile, tracing
from cmrr.activities import ThreadActivity
from cmrr.actors import ActorActivity, ActorPool
from cmrr.channels import Channel
from cmrr.locks import RRLock
from cmrr.runtime import Execution

# Units of the per-layer metrics ``layer_metrics`` returns.
LAYER_UNITS = {
    "tracing.put_count": "count",
    "tracing.record_calls": "count",
    "tracing.increment_calls": "count",
    "tracing.wait_calls": "count",
    "tracing.blocked_waits": "count",
    "tracing.blocked_waits_per_event": "waits/event",
    "tracing.wait_ms": "ms",
    "tracing.delay_calls": "count",
    "tracing.delay_ms": "ms",
    "tracefile.parse_ms": "ms",
    "tracefile.submit_count": "count",
    "tracefile.chunks": "count",
    "tracefile.octets": "octets",
    "tracefile.close_ms": "ms",
    "locks.acquire_count": "count",
    "locks.acquire_ms": "ms",
    "channels.ops": "count",
    "channels.op_ms": "ms",
    "stm.attempts": "count",
    "stm.commits": "count",
    "stm.commit_ratio": "ratio",
    "actors.sends": "count",
    "actors.slices": "count",
    "actors.msgs_per_slice": "msgs/slice",
    "actors.slice_ms": "ms",
    "activities.spawns": "count",
    "activities.join_ms": "ms",
    "runtime.digest_ms": "ms",
    "runtime.construct_ms": "ms",
}

# Counters every workload moves.
_EVERYWHERE = [
    "tracing.put_count", "tracing.record_calls", "tracing.increment_calls",
    "tracing.wait_calls", "tracing.wait_ms",
    "tracefile.parse_ms", "tracefile.submit_count", "tracefile.chunks",
    "tracefile.octets", "tracefile.close_ms",
    "activities.spawns", "runtime.digest_ms", "runtime.construct_ms",
]
_CHANNEL_GATE = [
    "tracing.blocked_waits", "tracing.blocked_waits_per_event",
    "channels.ops", "channels.op_ms",
]
_ACTORS = ["actors.sends", "actors.slices", "actors.msgs_per_slice", "actors.slice_ms"]
_STM = ["stm.attempts", "stm.commits", "stm.commit_ratio"]

# The counters each workload is chosen to move; the traced run fails if
# one of them reads zero.
MOVED_BY = {
    "csp-forks": _EVERYWHERE + _CHANNEL_GATE + [
        "tracing.delay_calls", "tracing.delay_ms", "activities.join_ms"],
    "actor-flood": _EVERYWHERE + _ACTORS,
    "lock-stm-phil": _EVERYWHERE + _STM + [
        "locks.acquire_count", "locks.acquire_ms", "activities.join_ms"],
    "sales-mixed": _EVERYWHERE + _CHANNEL_GATE + _ACTORS + _STM + [
        "activities.join_ms"],
}


class LayerTrace:
    """Installs counting wrappers into cmrr and collects their counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Counter = Counter()
        self._ns: Counter = Counter()
        self._undo: list = []

    # -- collecting --------------------------------------------------------

    def _add(self, key: str, count: int = 1, ns: int = 0) -> None:
        with self._lock:
            self._counts[key] += count
            if ns:
                self._ns[key] += ns

    def take(self) -> dict[str, Counter]:
        """Return and reset the counts and times gathered so far."""
        with self._lock:
            taken = {"count": self._counts, "ns": self._ns}
            self._counts, self._ns = Counter(), Counter()
        return taken

    def _timed(self, key: str, fn):
        add = self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                add(key, 1, perf_counter_ns() - start)

        return wrapper

    def _counted(self, key: str, fn):
        add = self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            add(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- special wrappers ----------------------------------------------------

    def _wrap_wait(self, fn):
        add = self._add

        @functools.wraps(fn)
        def wrapper(cond, predicate, execution):
            # The caller holds the condition's lock, so the predicate may
            # be evaluated here as watchdog_wait itself does.
            if not predicate():
                add("blocked")
            start = perf_counter_ns()
            try:
                return fn(cond, predicate, execution)
            finally:
                add("wait", 1, perf_counter_ns() - start)

        return wrapper

    def _wrap_atomic(self, fn):
        add = self._add

        @functools.wraps(fn)
        def wrapper(body):
            def attempt():
                add("attempt")
                return body()

            result = fn(attempt)
            add("commit")
            return result

        return wrapper

    def _wrap_submit(self, fn):
        add = self._add

        @functools.wraps(fn)
        def wrapper(sink, activity_id, payload):
            add("submit")
            add("octets", len(payload))
            return fn(sink, activity_id, payload)

        return wrapper

    def _wrap_close(self, fn):
        add = self._add

        @functools.wraps(fn)
        def wrapper(sink):
            start = perf_counter_ns()
            try:
                return fn(sink)
            finally:
                add("close", 1, perf_counter_ns() - start)
                # Counted by the writer thread: fewer chunks than submits
                # means the sink lost data.
                add("chunks", sink.chunks_written)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch_function(self, fn, wrapper) -> int:
        """Replace ``fn`` at every binding in loaded cmrr modules."""
        bound = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cmrr" or name.startswith("cmrr.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value, True))
                    setattr(module, attr, wrapper)
                    bound += 1
        return bound

    def _patch_method(self, cls, attr: str, make) -> None:
        own = attr in vars(cls)
        original = getattr(cls, attr)
        self._undo.append((cls, attr, original, own))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer trace already installed")
        functions = [
            (tracing.watchdog_wait, self._wrap_wait(tracing.watchdog_wait)),
            (tracing.delay_interaction, self._timed("delay", tracing.delay_interaction)),
            (tracing.increment_version, self._counted("increment", tracing.increment_version)),
            (tracing.record_interaction, self._counted("record", tracing.record_interaction)),
            (tracefile.parse_trace, self._timed("parse", tracefile.parse_trace)),
            (stm.atomic, self._wrap_atomic(stm.atomic)),
        ]
        for fn, wrapper in functions:
            if not self._patch_function(fn, wrapper):
                raise RuntimeError(f"no binding of {fn.__qualname__} found")
        methods = [
            (tracing.RecordBuffer, "put", lambda f: self._counted("put", f)),
            (tracefile.FileSink, "submit", self._wrap_submit),
            (tracefile.FileSink, "close", self._wrap_close),
            (RRLock, "acquire", lambda f: self._timed("acquire", f)),
            (Channel, "read", lambda f: self._timed("channel", f)),
            (Channel, "write", lambda f: self._timed("channel", f)),
            (ActorActivity, "enqueue", lambda f: self._counted("send", f)),
            (ActorActivity, "run_slice", lambda f: self._timed("slice", f)),
            (ActorPool, "note_processed", lambda f: self._counted("processed", f)),
            (Execution, "spawn", lambda f: self._counted("spawn", f)),
            (ThreadActivity, "join", lambda f: self._timed("join", f)),
            (Execution, "compute_digest", lambda f: self._timed("digest", f)),
            (Execution, "__init__", lambda f: self._timed("construct", f)),
        ]
        for cls, attr, make in methods:
            self._patch_method(cls, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_metrics(per_mode: dict[str, dict[str, Counter]], events: int) -> dict[str, float]:
    """Per-layer metrics of one iteration from its per-mode counts.

    Each metric is read from the execution where its layer does the work
    the metric is meant to move: the trace write path and the digest from
    ``record``; the replay gate, waits, parsing and the four models from
    ``replay``; spawning, joining and construction from ``passive``.
    ``events`` is the number of events the iteration recorded.
    """

    def count(mode, key):
        return per_mode[mode]["count"][key]

    def ms(mode, key):
        return per_mode[mode]["ns"][key] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    rec, rep, pas = "record", "replay", "passive"
    return {
        "tracing.put_count": count(rec, "put"),
        "tracing.record_calls": count(rec, "record"),
        "tracing.increment_calls": count(rep, "increment"),
        "tracing.wait_calls": count(rep, "wait"),
        "tracing.blocked_waits": count(rep, "blocked"),
        "tracing.blocked_waits_per_event": ratio(count(rep, "blocked"), events),
        "tracing.wait_ms": ms(rep, "wait"),
        "tracing.delay_calls": count(rep, "delay"),
        "tracing.delay_ms": ms(rep, "delay"),
        "tracefile.parse_ms": ms(rep, "parse"),
        "tracefile.submit_count": count(rec, "submit"),
        "tracefile.chunks": count(rec, "chunks"),
        "tracefile.octets": count(rec, "octets"),
        "tracefile.close_ms": ms(rec, "close"),
        "locks.acquire_count": count(rep, "acquire"),
        "locks.acquire_ms": ms(rep, "acquire"),
        "channels.ops": count(rep, "channel"),
        "channels.op_ms": ms(rep, "channel"),
        "stm.attempts": count(rep, "attempt"),
        "stm.commits": count(rep, "commit"),
        "stm.commit_ratio": ratio(count(rep, "commit"), count(rep, "attempt")),
        "actors.sends": count(rep, "send"),
        "actors.slices": count(rep, "slice"),
        "actors.msgs_per_slice": ratio(count(rep, "processed"), count(rep, "slice")),
        "actors.slice_ms": ms(rep, "slice"),
        "activities.spawns": count(pas, "spawn"),
        "activities.join_ms": ms(pas, "join"),
        "runtime.digest_ms": ms(rec, "digest"),
        "runtime.construct_ms": ms(pas, "construct"),
    }
