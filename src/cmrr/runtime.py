"""Execution lifecycle: configuration, spawning, finalization, digesting.

An ``Execution`` runs one program once, in one of three modes. Recording
hands flushed buffers to a trace sink (file or discard); replay parses the
trace up front and feeds each activity its recorded queue. At the end of a
run the execution computes a digest over the program's outputs and every
entity's ordered interaction log: the operational meaning of "two runs
behaved identically".
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Optional

from .activities import (
    Activity,
    ActivityKind,
    ThreadActivity,
    child_activity_id,
    current_activity,
    set_current_activity,
)
from .actors import ActorActivity, ActorPool
from .errors import (
    ExecutionAborted,
    ReplayLeftoverEvents,
    TraceFormatError,
    UsageError,
)
from .events import ACTIVITY_SPAWN, describe
from .stm import CommitPoint
from .tracefile import (
    ActorStrategy,
    DiscardSink,
    FileSink,
    TraceSink,
    parse_trace,
    strategy_to_flags,
)
from .tracing import (
    DEFAULT_WATCHDOG_SECONDS,
    ExecutionMode,
    Monitor,
    RecordBuffer,
    ReplayQueue,
    VersionedEntity,
    record_interaction,
    watchdog_wait,
)


@dataclass(frozen=True)
class PerturbationPlan:
    """Deterministic scheduling jitter injected at instrumentation points.

    The same seed yields the same per-activity delay sequence; delays are
    bounded sleeps and never touch program semantics.
    """

    seed: int
    prob: float = 0.02
    max_delay: float = 0.0005

    def __post_init__(self):
        if not (0 <= self.prob <= 1 and 0 <= self.max_delay < float("inf")):  # also nan
            raise UsageError(f"perturbation needs prob in [0, 1] and a finite max_delay of "
                             f"at least 0 s, got prob={self.prob}, max_delay={self.max_delay}")

    def point_for(self, activity_id: int) -> Callable[[], None]:
        """The perturbation point of one activity: with probability
        ``prob``, sleep a uniform share of ``max_delay`` seconds. The id is
        mixed into the seed, so each activity draws its own reproducible
        sequence."""
        rng = random.Random((self.seed * 0x9E3779B97F4A7C15 + activity_id) & (2**64 - 1))
        prob, max_delay = self.prob, self.max_delay

        def perturb_point() -> None:
            if rng.random() < prob:
                time.sleep(rng.random() * max_delay)
        return perturb_point


@dataclass
class RunResult:
    """What one execution produced."""

    outputs: Any
    digest: str
    mode: ExecutionMode
    strategy: ActorStrategy
    trace_path: Optional[str] = None
    actor_logs: dict = field(default_factory=dict)


# Log entries formatted per hash update in ``Execution.compute_digest``.
DIGEST_SLICE = 512


class Execution:
    """One program execution under a fixed mode and actor strategy."""

    def __init__(
        self,
        mode: ExecutionMode | str,
        strategy: ActorStrategy | str | None = None,
        trace_path: Optional[str] = None,
        sink: TraceSink | str = "file",
        watchdog_seconds: float = DEFAULT_WATCHDOG_SECONDS,
        pool_size: Optional[int] = None,
        perturb: Optional[PerturbationPlan] = None,
    ):
        if pool_size is not None and pool_size < 1:
            raise UsageError(f"actor pool size must be at least 1, got {pool_size}")
        if not watchdog_seconds > 0:  # also rejects nan
            raise UsageError(f"watchdog must be more than 0 seconds, got {watchdog_seconds}")
        try:
            self.mode = ExecutionMode(mode)
        except ValueError:
            raise UsageError(
                f"unknown mode {mode!r}; expected passive, record or replay") from None
        if isinstance(strategy, str):
            if strategy not in ("sender", "receiver"):
                raise UsageError(
                    f"unknown actor strategy {strategy!r}; expected sender or receiver")
            strategy = ActorStrategy[f"{strategy.upper()}_SIDE"]
        self.watchdog_seconds = watchdog_seconds
        self.trace_path = trace_path
        self.perturb = perturb
        # Counts every globally visible step; replay's deadlock watchdog
        # fires when it stands still. Deliberately unlocked: it is a
        # heuristic clock, and a racy lost increment at worst delays one
        # deadline reset by a tick.
        self.progress = 0
        # Live thread activities plus actors that have mail or a queued or
        # running slice (one each, however much mail), each counted before
        # it can start by work that is itself counted: once main has
        # returned, 0 means nothing can run again.
        self.live = 0
        self.live_lock = threading.Lock()
        self.live_monitor = Monitor(self.live_lock)
        # Guards the abort error, ``activities`` and ``entities``.
        self._lock = threading.Lock()
        self._abort_exc: Optional[BaseException] = None
        self.activities: dict[int, Activity] = {}
        self.entities: list[VersionedEntity] = []
        # Sequence of entities created outside any activity, ids (-1, n).
        self.internal_entity_seq = count()
        self._ran = False
        self._queues: dict[int, ReplayQueue] = {}
        self.sink: Optional[TraceSink] = None

        if self.mode is ExecutionMode.REPLAY:
            if trace_path is None:
                raise UsageError("replay needs a trace path")
            trace = parse_trace(trace_path)
            if strategy is not None and strategy is not trace.strategy:
                raise TraceFormatError(
                    f"trace was recorded {trace.strategy.name}, "
                    f"requested {strategy.name}"
                )
            self.strategy = trace.strategy
            self._queues = trace.queues
        else:
            self.strategy = strategy or ActorStrategy.SENDER_SIDE
            if self.mode is ExecutionMode.RECORD:
                if isinstance(sink, TraceSink):
                    self.sink = sink
                elif sink == "discard":
                    self.sink = DiscardSink()
                elif sink == "file":
                    if trace_path is None:
                        raise UsageError("recording to a file needs a trace path")
                    self.sink = FileSink(trace_path)
                else:
                    raise UsageError(f"unknown sink kind {sink!r}")
                self.sink.start(strategy_to_flags(self.strategy))

        self.actor_pool = ActorPool(self, pool_size or max(4, os.cpu_count() or 1))
        self.commit_point = CommitPoint(self)

    # -- bookkeeping ----------------------------------------------------------

    def register_entity(self, entity: VersionedEntity) -> None:
        with self._lock:
            self.entities.append(entity)

    def attach_activity(self, activity: Activity) -> None:
        with self._lock:
            if activity.id in self.activities:
                raise UsageError(f"duplicate activity id {activity.id}")
            self.activities[activity.id] = activity
        if self.mode is ExecutionMode.RECORD:
            activity.buffer = RecordBuffer(activity.id, self.sink)
        elif self.mode is ExecutionMode.REPLAY:
            queue = self._queues.get(activity.id)
            if queue is None:
                queue = ReplayQueue(activity.id)
                self._queues[activity.id] = queue
            activity.replay_queue = queue
        if self.perturb is not None:
            activity.perturb_point = self.perturb.point_for(activity.id)

    def abort(self, exc: BaseException) -> None:
        """Remember the first failure and wake everything blocked on it.
        Ignores ``ExecutionAborted``, which a wait raises after a failure."""
        if isinstance(exc, ExecutionAborted):
            return
        with self._lock:
            if self._abort_exc is None:
                self._abort_exc = exc
        self.progress += 1

    def check_abort(self) -> None:
        if self._abort_exc is not None:
            raise ExecutionAborted(repr(self._abort_exc))

    # -- spawning ---------------------------------------------------------------

    def spawn(self, kind: ActivityKind, entry: Callable, args: tuple = (),
              name: str = "") -> Activity:
        """Create and start a child of the current activity.

        The child's id is a pure function of (parent id, parent spawn
        counter); a spawn event is recorded so replay detects diverging
        activity creation immediately.
        """
        parent = current_activity()
        try:
            child_id = child_activity_id(parent.id, next(parent.spawn_counter))
        except OverflowError as exc:
            # Abort first: an actor handler keeps the errors it raises.
            err = UsageError(f"{parent.name} cannot spawn: {exc}")
            self.abort(err)
            raise err from exc
        record_interaction(parent, ACTIVITY_SPAWN, child_id)
        if kind is ActivityKind.ACTOR:
            child: Activity = ActorActivity(self, child_id, entry, name)
        else:
            child = ThreadActivity(self, child_id, kind, entry, args, name)
            self.count_live(1)
            try:
                child.start()
            except BaseException:
                self.count_live(-1)  # the child never runs to count itself down
                raise
        return child

    def count_live(self, delta: int) -> None:
        """Move the live count by ``delta``. A count down wakes the threads
        parked in ``wait_live``; a count up wakes nobody."""
        with self.live_lock:
            self.live += delta
            if delta < 0 and self.live_monitor._waiters:
                self.live_monitor.notify_all()

    def wait_live(self, predicate: Callable[[], bool]) -> None:
        """Wait until ``predicate()``, tested under the live lock, holds:
        parks in ``watchdog_wait`` and tests again at each count down."""
        with self.live_lock:
            if not predicate():
                watchdog_wait(self.live_monitor, predicate, self)

    # -- running ------------------------------------------------------------------

    def run(self, entry: Callable, *args) -> RunResult:
        """Execute ``entry`` as the main activity (id 0) and finalize.

        Then waits in one ``watchdog_wait`` until no thread activity, joined
        or not, is alive and no actor has mail or a queued or running
        slice, and, since an abort ends that wait at once, joins every
        thread activity's thread within one watchdog interval; a failed
        run's error names those still alive then in a note. Then flushes
        and closes the trace, verifies full trace consumption in replay,
        and returns outputs plus the behavior digest.
        """
        if self._ran:
            raise UsageError("an Execution object runs exactly once")
        self._ran = True
        main = Activity(self, 0, ActivityKind.THREAD, name="main")
        set_current_activity(main)
        outputs = None
        try:
            outputs = entry(*args)
        except BaseException as exc:  # noqa: BLE001
            self.abort(exc)
        finally:
            set_current_activity(None)

        try:
            self.wait_live(lambda: not self.live)
        except BaseException as exc:  # noqa: BLE001
            self.abort(exc)
        # After an abort, threads may still run or sit parked until their
        # next wait tick: join them all within one watchdog interval.
        deadline = time.monotonic() + self.watchdog_seconds
        with self._lock:
            threads = [act._thread for act in self.activities.values()
                       if isinstance(act, ThreadActivity) and act._thread.ident]
        for thread in threads:  # a started thread, named after its activity
            thread.join(max(0.0, deadline - time.monotonic()))
        alive = [thread.name for thread in threads if thread.is_alive()]
        self.actor_pool.shutdown()

        try:
            for act in self.activities.values():
                try:
                    act.finish_tracing()
                except TraceFormatError as exc:  # the others still flush
                    self.abort(exc)
        finally:
            if self.sink is not None:
                self.sink.close()

        if self._abort_exc is not None:
            if alive:
                self._abort_exc.add_note(
                    f"thread activities still alive {self.watchdog_seconds:g}s after the "
                    f"run failed: {', '.join(alive)}")
            raise self._abort_exc

        if self.mode is ExecutionMode.REPLAY:
            self._check_full_consumption()

        digest = self.compute_digest(outputs)
        actor_logs = {
            act.id: list(act.processed_log)
            for act in self.activities.values()
            if isinstance(act, ActorActivity)
        }
        return RunResult(
            outputs=outputs,
            digest=digest,
            mode=self.mode,
            strategy=self.strategy,
            trace_path=self.trace_path,
            actor_logs=actor_logs,
        )

    def _check_full_consumption(self) -> None:
        leftovers = {
            activity_id: (len(queue), queue.peek())
            for activity_id, queue in self._queues.items()
            if len(queue)
        }
        if leftovers:
            detail = "; ".join(
                f"activity {aid}: {n} events left, next {describe(ev)}"
                for aid, (n, ev) in sorted(leftovers.items())
            )
            raise ReplayLeftoverEvents(f"replay did not consume the trace: {detail}")

    # -- reporting -------------------------------------------------------------------

    def compute_digest(self, outputs: Any) -> str:
        """Stable hash over outputs and per-entity ordered interaction logs."""
        h = hashlib.sha256()
        h.update(json.dumps(outputs, sort_keys=True, default=repr).encode())
        with self._lock:
            entities = sorted(self.entities, key=lambda e: e.entity_id)
        for entity in entities:
            h.update(f"\n#{entity.kind}{entity.entity_id}".encode())
            words = entity._log
            # Bounded slices: no bytes object as large as the whole log.
            for start in range(0, len(words), 3 * DIGEST_SLICE):
                part = tuple(words[start:start + 3 * DIGEST_SLICE])
                h.update(b"|%d,%d,%d" * (len(part) // 3) % part)
        return h.hexdigest()

    def version_completeness_report(self) -> list[str]:
        """Violations of the gap-free 0..K-1 recorded-version property."""
        problems = []
        with self._lock:
            entities = list(self.entities)
        for entity in entities:
            problem = entity.check_version_completeness()
            if problem:
                problems.append(problem)
        return problems


# -- module-level user API ----------------------------------------------------------


def spawn_thread(entry: Callable, *args, name: str = "") -> ThreadActivity:
    """Start a new thread activity as a child of the current activity."""
    ex = current_activity().execution
    return ex.spawn(ActivityKind.THREAD, entry, args, name)


def spawn_process(entry: Callable, *args, name: str = "") -> ThreadActivity:
    """Start a new CSP-style process activity (thread-backed)."""
    ex = current_activity().execution
    return ex.spawn(ActivityKind.PROCESS, entry, args, name)


def spawn_actor(handler: Callable[[Any], None], name: str = "") -> ActorActivity:
    """Create a new actor whose event loop runs ``handler`` per message."""
    ex = current_activity().execution
    return ex.spawn(ActivityKind.ACTOR, handler, (), name)
