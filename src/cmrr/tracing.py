"""Model-agnostic recording substrate.

Holds the execution-mode switch, per-activity record buffers and replay
queues, per-entity version counters, and the three framework primitives
every instrumented operation is built from:

* ``record_interaction`` is record-or-check for an event whose data word
  the program computes: recording appends it to the acting activity's
  buffer, replay checks that the trace head is exactly that event and
  consumes it, passive does nothing,
* ``increment_version`` bumps an entity's version counter (recording and
  replay) and wakes anyone parked on the entity's ``_monitor``,
* ``delay_interaction`` is the gate, in every mode, of an operation
  that takes its turn on an entity: in replay it holds the operation
  until the entity's version matches the version stored in the
  activity's next trace event (and, optionally, the operation's own
  readiness predicate holds), then consumes that event; otherwise it
  holds it until it is ready and records the entity's current version,
  as ``record_interaction`` would but without calling it. A turn that
  has already come is taken inline, without entering the wait layer.

Call both with the entity's monitor held; neither enters it itself.

Replay reads a trace head only through ``ReplayQueue.expect``, the gate or
``record_interaction``, so every divergence is reported in one format; the
one other reader, the scan for an actor's receive places, raises nothing.
Events are machine words, not one tuple or packed string each: a record
buffer holds its unflushed events as one list, tag and data word in turn,
and packs and validates each chunk once, as it flushes it; a replay queue
holds its type tags and data words in two lists (``expect`` returns the
head's data word); and an entity's log is one flat ``array('Q')``.

A blocked activity parks in ``watchdog_wait``, and only a blocked one:
every caller tests its predicate first and enters only to park. It parks
a model operation waiting for its entity, a join waiting for a thread,
and the end of a run waiting for the last thread and busy actor, always
in ``Monitor.wait``. Its no-progress watchdog turns blocked-forever
replays (corrupted trace, nondeterminism leak) into ``ReplayDeadlock``
instead of hangs, within the watchdog interval plus two ``WAIT_TICK``s.
One wait stays outside it: the wall-clock loop of a record-mode
``RRCondition.wait_timeout``, which waits on the lock's monitor directly
and checks only for an abort.
"""

from __future__ import annotations

import struct
import threading
import time
from _thread import allocate_lock as _allocate_lock
from array import array
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .errors import ReplayDeadlock, ReplayQueueExhausted, ReplayTypeMismatch, TraceFormatError
from .events import (_VALID_TAG_OCTETS, EVENT_SIZE, EventType, TraceEvent, _packer,
                     describe, encode_event)

if TYPE_CHECKING:  # pragma: no cover
    from .activities import Activity

FLUSH_THRESHOLD = 4096
DEFAULT_WATCHDOG_SECONDS = 30.0

# How often blocked waiters re-check the watchdog and abort flag. Waits
# are normally ended by a direct notify; the tick only bounds detection
# latency for deadlocks and aborts.
WAIT_TICK = 0.05


class ExecutionMode(Enum):
    """Per-execution switch; fixed before any activity spawns."""

    PASSIVE = "passive"
    RECORD = "record"
    REPLAY = "replay"


# Event types whose data word is an entity version counter (as opposed to
# an identity or sequence number).
VERSION_EVENT_TYPES = frozenset({
    EventType.LOCK,
    EventType.AWAIT_SIGNALED,
    EventType.AWAIT_TIMEOUT,
    EventType.MSG_SEND,
    EventType.PROMISE_RESOLVE,
    EventType.PROMISE_MSG_STORE,
    EventType.CHANNEL_READ,
    EventType.CHANNEL_WRITE,
    EventType.TX_COMMIT,
})


# Hot-path aliases: a module global reads faster than an enum member.
PASSIVE, RECORD, REPLAY = ExecutionMode


class RecordBuffer:
    """One activity's unflushed events as a list of words, each event's
    type tag and then its data word; ``len`` counts octets.

    Written only by its owning activity. It flushes once it holds
    ceil(``FLUSH_THRESHOLD`` / 9) events, the threshold read when it is
    made, and when the activity terminates. ``flush`` packs the chunk in
    one struct call, validates it and hands it to the sink. An unregistered
    tag or a data word outside u64 raises ``TraceFormatError`` naming the
    activity, the first bad event's index in its trace and the event; the
    sink then gets none of the chunk.
    """

    def __init__(self, owner_id: int, sink):
        self.owner_id = owner_id
        self._sink = sink
        self._words: list[int] = []
        self._limit = 2 * -(-FLUSH_THRESHOLD // EVENT_SIZE)
        self._flushed = 0  # events handed to the sink

    def __len__(self) -> int:
        return len(self._words) // 2 * EVENT_SIZE

    def put(self, event_type: int, data: int) -> None:
        words = self._words
        words.append(event_type)
        words.append(data)
        if len(words) >= self._limit:
            self.flush()

    def flush(self) -> None:
        words = self._words
        if words:
            try:
                chunk = self.snapshot()
            except TraceFormatError:
                words.clear()
                raise
            self._sink.submit(self.owner_id, chunk)
            self._flushed += len(words) // 2
            words.clear()

    def snapshot(self) -> bytes:
        """Unflushed content, packed and validated as ``flush`` packs it."""
        words = self._words
        try:
            chunk = _packer(len(words) // 2).pack(*words)
        except struct.error:
            pass
        else:
            if not chunk[::EVENT_SIZE].translate(None, _VALID_TAG_OCTETS):
                return chunk
        for index in range(0, len(words), 2):  # the first event that fails alone
            event_type, data = words[index:index + 2]
            try:
                encode_event(TraceEvent(event_type, data))
            except (TraceFormatError, struct.error) as exc:
                raise TraceFormatError(
                    f"activity {self.owner_id}: cannot record event "
                    f"{self._flushed + index // 2}, ({event_type}, {data!r}): {exc}") from None


class ReplayQueue:
    """Ordered per-activity event sequence with a consuming cursor.

    The events are two columns, as the chunk decoder parses them: ``_types``,
    the type tags, and ``_words``, the data words. ``expect`` checks the
    head's type and returns its data word, and ``advance`` consumes it,
    strictly in recorded order; ``peek`` never consumes. Iterating yields
    every raw ``(type, data)`` pair, consumed or not.
    """

    def __init__(self, owner_id: int, types: Sequence[int] = (), words: Sequence[int] = ()):
        self.owner_id = owner_id
        self._types = types
        self._words = words
        self._pos = 0

    def __len__(self) -> int:
        return len(self._types) - self._pos

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._types, self._words)

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The full recorded sequence, including consumed events."""
        return tuple(map(TraceEvent, self._types, self._words))

    def peek(self) -> Optional[tuple[int, int]]:
        pos = self._pos
        return (self._types[pos], self._words[pos]) if pos < len(self._types) else None

    def advance(self) -> None:
        """Consume the head that ``expect`` checked."""
        self._pos += 1

    def expect(self, *event_types: int) -> int:
        """Verify the head's type is one of ``event_types`` and return its
        data word; does not consume. The one check of what the trace may
        hold next."""
        pos = self._pos
        try:
            event_type = self._types[pos]
        except IndexError:
            error, found = ReplayQueueExhausted, "trace is exhausted"
        else:
            if event_type in event_types:
                return self._words[pos]
            error, found = ReplayTypeMismatch, f"trace holds {describe(self.peek())}"
        names = " or ".join(EventType(t).name for t in event_types)
        raise error(f"activity {self.owner_id}: expected {names}, {found}")


class Monitor(threading.Condition):
    """Condition whose ``wait`` and ``notify_all`` are its own, built on
    ``Condition``'s ``_waiters`` alone: one Python frame per park and no
    ownership checks, so the caller must hold the lock, once. A wait
    releases and retakes it with its plain ``release`` and ``acquire``.
    ``notify_all`` pops its waiters. Every wait is timed; a timeout of 0
    or less returns ``False`` at once, without releasing the lock.

    ``_waiters`` holds the threads parked in ``wait`` and not yet woken.
    A waiter files itself under the lock, before it releases it, so a waker
    holding the lock may skip ``notify_all`` when it finds ``_waiters``
    empty: any thread not filed has yet to test its predicate, and one
    already woken, or timed out, tests it again once it has the lock.

    ``due`` holds the recorded versions that replayed gates parked on this
    monitor await, and nothing else: a gate whose turn has come takes it
    inline and files nothing, and only ``delay_interaction`` changes
    ``due``, under the lock."""

    def __init__(self, lock):
        super().__init__(lock)
        self.due: list[int] = []

    def wait(self, timeout):
        if not timeout > 0:
            return False
        waiter = _allocate_lock()
        waiter.acquire()
        self._waiters.append(waiter)
        self.release()
        gotit = False
        try:
            gotit = waiter.acquire(True, timeout)
            return gotit
        finally:
            self.acquire()
            if not gotit and waiter in self._waiters:  # else notified after its timeout
                self._waiters.remove(waiter)

    def notify_all(self):
        waiters = self._waiters
        while waiters:
            waiters.popleft().release()


class VersionedEntity:
    """Passive entity carrying a monotone version counter.

    The counter orders all nondeterministic interactions with the entity.
    Each entity owns one lock, ``_lock``, and one monitor over it,
    ``_monitor``; operations mutate the version only while holding the
    lock, and waiters for the entity park on the monitor, which
    ``increment_version`` wakes. The lock is a plain ``threading.Lock``:
    no model operation enters it while it already holds it. An entity may
    add further ``Monitor``s over the same lock, one per kind of waiter,
    so that a state change wakes only the waiters it can release; a
    channel parks its claiming writers apart from the waiting sides of its
    rendezvous. The entity also keeps an in-memory log of the interactions
    it saw (recorded in recording mode, consumed in replay mode), which
    feeds run digests and version-completeness checks: ``_log`` holds three
    words per interaction, its activity's id, type and data, in the order
    a digest hashes: as they happen, except that a channel logs a
    rendezvous's read when it completes, before the write of its claim.
    """

    kind = "entity"

    def __init__(self, execution=None):
        if execution is None:
            from .activities import current_activity

            act = current_activity()
            execution = act.execution
            self.entity_id = (act.id, next(act.entity_seq))
        else:
            self.entity_id = (-1, next(execution.internal_entity_seq))
        self.execution = execution
        self.version = 0
        # Entering ``_lock`` holds the monitor without the Python-level
        # context manager of ``Condition``. Model operations enter it with
        # ``with self._lock``, except ``RRLock.acquire`` and ``release``,
        # the hottest: a lock's ``acquire()`` and ``try``/``finally:
        # release()`` cost about half its ``with``.
        self._lock = threading.Lock()
        self._monitor = Monitor(self._lock)
        self._log = array("Q")
        execution.register_entity(self)

    def note(self, activity_id: int, event_type: int, data: int) -> None:
        """Append one interaction to the entity-order log (monitor held)."""
        self._log.fromlist([activity_id, event_type, data])

    def log_entries(self) -> list[tuple[int, int, int]]:
        return list(zip(*[iter(self._log)] * 3))

    def recorded_versions(self) -> list[int]:
        """Sorted data words of the version-carrying events this entity saw."""
        return sorted(d for (_, t, d) in self.log_entries() if t in VERSION_EVENT_TYPES)

    def check_version_completeness(self) -> Optional[str]:
        """None when the recorded versions form the gap-free multiset
        0..finalVersion-1; otherwise a description of the violation."""
        versions = self.recorded_versions()
        expected = list(range(self.version))
        if versions != expected:
            return (f"{self.kind} {self.entity_id}: recorded versions "
                    f"{versions[:20]}... do not cover 0..{self.version - 1}")
        return None


def record_interaction(activity: "Activity", event_type: int, data: int,
                       entity: VersionedEntity | None = None) -> None:
    """Record one event, or check it against the trace in replay.

    Recording appends it to the activity's record buffer. Replay verifies
    that the activity's trace head is exactly ``(event_type, data)``,
    consumes it and counts progress; a different data word raises
    ``ReplayTypeMismatch``, a different type or an exhausted trace what
    ``ReplayQueue.expect`` raises. No-op when passive. ``entity``, when
    given, receives the interaction in its order log for digesting.
    """
    activity.perturb_point()
    ex = activity.execution
    if ex.mode is RECORD:
        activity.buffer.put(event_type, data)
    elif ex.mode is REPLAY:
        queue = activity.replay_queue
        if queue.expect(event_type) != data:
            on = "" if entity is None else f" on {entity.kind} {entity.entity_id}"
            raise ReplayTypeMismatch(
                f"activity {activity.id}: {describe((event_type, data))}{on}, "
                f"trace holds {describe(queue.peek())}")
        queue._pos += 1  # advance(), without the call
        ex.progress += 1
    else:
        return
    if entity is not None:
        entity._log.fromlist([activity.id, event_type, data])


def increment_version(entity: VersionedEntity) -> int:
    """Bump the entity version in recording and replay; untouched when passive.

    Call with the entity monitor held. Returns the post-increment value
    (current value when passive). Wakes the threads parked on
    ``entity._monitor``, if any, and counts as global progress.
    """
    ex = entity.execution
    if ex.mode is PASSIVE:
        return entity.version
    entity.version += 1
    monitor = entity._monitor
    if monitor._waiters:
        monitor.notify_all()
    ex.progress += 1
    return entity.version


def delay_interaction(activity: "Activity", entity: VersionedEntity,
                      expected_type: int,
                      ready: Optional[Callable[[], bool]] = None,
                      monitor: Optional[Monitor] = None) -> Optional[int]:
    """The one gate of an ``expected_type`` interaction on ``entity``:
    wait until the activity may perform it, and trace it.

    Call with the entity monitor held; ``ready`` is evaluated under it.
    Replay: verifies the head of the activity's replay queue has
    ``expected_type``, waits until ``entity.version`` equals the version
    stored in that event and ``ready()`` (when given) holds, then
    consumes and logs it and returns that version. Record and
    passive: waits for ``ready()``, records and logs the event at the
    entity's current version (a no-op when passive) and returns
    ``None``. Both arms call ``activity.perturb_point`` once, as
    ``record_interaction`` does; the record arm writes the buffer and
    the log itself rather than call it, one frame fewer per turn.

    A gate whose turn has already come takes it inline: it calls no
    ``watchdog_wait`` and, in replay, files nothing. Only a gate that must
    park enters ``watchdog_wait``, once, on ``monitor``, in every mode; it
    defaults to ``entity._monitor``. An entity that keeps one wait set per
    kind of waiter passes another ``Monitor`` over the same lock, and must
    then notify it itself whenever the version or ``ready()`` may have
    turned true for its waiters, since ``increment_version`` notifies only
    ``entity._monitor``. A replayed gate that parks has its awaited
    version in ``monitor.due`` for the wait, however it ends, so others
    see there only the versions of parked gates.
    """
    ex = activity.execution
    if monitor is None:
        monitor = entity._monitor
    mode = ex.mode
    if mode is not REPLAY:
        if ready is not None and not ready():
            watchdog_wait(monitor, ready, ex)
        activity.perturb_point()
        if mode is RECORD:
            version = entity.version
            activity.buffer.put(expected_type, version)
            entity._log.fromlist([activity.id, expected_type, version])
        return None
    activity.perturb_point()
    queue = activity.replay_queue
    version = queue.expect(expected_type)
    if entity.version != version or (ready is not None and not ready()):
        monitor.due.append(version)
        try:
            watchdog_wait(monitor, lambda: entity.version == version and (
                ready is None or ready()), ex)
        finally:
            monitor.due.remove(version)
    queue._pos += 1  # advance(), without the call
    entity._log.fromlist([activity.id, expected_type, version])
    ex.progress += 1
    return version


def watchdog_wait(cond: Monitor, predicate: Callable[[], bool], execution) -> None:
    """Park on ``cond`` until ``predicate()`` holds; where cmrr parks a
    blocked activity, except in a record-mode timed condition wait's
    wall-clock loop (``RRCondition.wait_timeout``).

    Entered only to park: the caller holds the condition's lock and has
    found ``predicate()`` false, and the wait tests it only after each
    wake-up. It raises the execution's abort error before the first park
    and after each wake-up that finds the predicate false. In replay mode
    it raises ``ReplayDeadlock`` once the execution's progress count has
    stood still for the watchdog interval; the clock is read only after
    such a wake-up, and a wait wakes at least every ``WAIT_TICK``, so a
    stuck replay ends within the watchdog interval plus two ticks of
    parking.
    """
    execution.check_abort()
    replaying = execution.mode is REPLAY
    progress = deadline = None
    while True:
        cond.wait(WAIT_TICK)
        if predicate():
            return
        execution.check_abort()
        if replaying:
            now = time.monotonic()
            if deadline is None or execution.progress != progress:
                progress = execution.progress
                deadline = now + execution.watchdog_seconds
            elif now >= deadline:
                err = ReplayDeadlock(
                    f"no progress for {execution.watchdog_seconds:.1f}s while "
                    f"blocked in replay; trace and program have diverged"
                )
                execution.abort(err)
                raise err
