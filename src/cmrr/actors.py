"""Communicating event-loop actors with promises.

Each actor has isolated state, a mailbox, and an event loop that handles
one message at a time; actors are multiplexed over a worker pool. Two
interchangeable recording strategies are supported, selected per run:

* sender-side: every send records the target mailbox's version into the
  sender's trace; replay files each sent message under its recorded
  version, and the actor drains versions in order. Promise store/resolve
  races get their own versioned events.
* receiver-side: the processing actor records the sender identity of each
  message (plus a per-sender sequence number for promise messages, split
  into a separate preceding event); replay reads the actor's trace once to
  find the place of each recorded receive, files each message under the
  place of the receive that names it, and checks each receive as it
  takes the message.

Either way, pending mail is keyed by consecutive ints and one loop drains
it. Replay never blocks a pool worker waiting on a mailbox: an actor whose
awaited message has not arrived simply yields and is rescheduled when it
shows up.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import count
from typing import Any, Callable, Optional

from .activities import (
    Activity,
    ActivityKind,
    current_activity,
    set_current_activity,
)
from .errors import (
    AlreadyResolved,
    ExecutionAborted,
    ReplayError,
    ReplayTypeMismatch,
    TraceFormatError,
    UsageError,
)
from .events import MSG_RCVD, MSG_SEND, PROMISE_MSG_STORE, PROMISE_RESOLVE, PROMMSG_RCVD
from .tracefile import ActorStrategy
from .tracing import (
    PASSIVE,
    RECORD,
    REPLAY,
    VersionedEntity,
    delay_interaction,
    increment_version,
    record_interaction,
    watchdog_wait,
)

# Hot-path aliases: a module global reads faster than an enum member.
SENDER_SIDE, RECEIVER_SIDE = ActorStrategy


class Message:
    """One actor message.

    ``sender_id`` is the original author (kept across promise forwarding);
    ``seq`` numbers every message per sender; ``promise_message_id``
    numbers promise-bound messages per sender and is present iff the
    message was sent to a promise. A message carrying a ``callback`` (a
    promise callback) runs it, instead of the actor's handler, on the
    payload, which is the resolved value.
    """

    __slots__ = ("sender_id", "payload", "seq", "promise_message_id", "callback")

    def __init__(self, sender_id: int, payload: Any, seq: int,
                 promise_message_id: Optional[int] = None,
                 callback: Optional[Callable[[Any], None]] = None):
        self.sender_id = sender_id
        self.payload = payload
        self.seq = seq
        self.promise_message_id = promise_message_id
        self.callback = callback


class _Mailbox(VersionedEntity):
    kind = "mailbox"


def _receive_places(queue) -> dict:
    """Receiver-side replay: where each receive in an actor's trace falls
    in its processing order. Maps ``(sender, promise id)`` to a FIFO of
    places, with id ``None`` for plain messages, and ``None`` to a count
    of the places after them all, for messages that no receive names.
    Reads the raw pairs and raises nothing: the drain checks each receive."""
    places: dict = {}
    place, promised = 0, None
    for event_type, data in queue:
        if event_type == MSG_RCVD:  # after PROMMSG_RCVD(id) if a promise message
            places.setdefault((data, promised), deque()).append(place)
            place += 1
        promised = data if event_type == PROMMSG_RCVD else None
    places[None] = count(place)
    return places


class ActorActivity(Activity):
    """An actor: activity plus mailbox, scheduled on the worker pool."""

    def __init__(self, execution, activity_id, handler: Callable[[Any], None], name=""):
        super().__init__(execution, activity_id, ActivityKind.ACTOR, name)
        # At 30 instance attributes CPython 3.11 stops sharing dict keys,
        # which slows every attribute access here: keep to 29 or fewer.
        self._handler = handler
        self.mailbox_entity = _Mailbox()
        self._mailbox_lock = self.mailbox_entity._lock
        # Pending messages by key, attached at enqueue time: the recorded
        # mailbox version under sender-side replay, the place of the
        # recorded receive under receiver-side replay, otherwise the
        # arrival index, ``_next + len(_mail)``. ``_next`` is the key the
        # drain takes next.
        self._mail: dict[int, Message] = {}
        # Per sender, its last send's version (sender-side replay).
        self._arrived_from: dict[int, int] = {}
        self._places = (_receive_places(self.replay_queue) if execution.mode is REPLAY
                        and execution.strategy is RECEIVER_SIDE else None)
        self._next = 0
        # On the ready deque or in a slice; cleared at the slice's end.
        self._queued = False
        self.processed_log: list[tuple[int, int]] = []
        self.errors: list[BaseException] = []

    # -- sending ------------------------------------------------------------

    def enqueue(self, msg: Message, acting: Activity) -> None:
        """Deliver a message; callable from any activity.

        ``acting``, the caller's current activity, carries the trace
        semantics; the message's ``sender_id`` may differ when a promise
        forwards it.
        """
        ex = self.execution
        sender_side = ex.strategy is SENDER_SIDE
        acting.perturb_point()
        with self._mailbox_lock:
            if sender_side and ex.mode is REPLAY:
                # Non-blocking by design: attach the recorded version instead
                # of delaying the send, so pool workers can always run.
                queue = acting.replay_queue
                key = queue.expect(MSG_SEND)
                queue._pos += 1  # consume the head that expect checked
                # The version is trace input: a reused one would overwrite a
                # pending message or never be drained, and one not above the
                # sender's last holds a send order that no recording can.
                if key < self._next or key in self._mail:
                    raise ReplayTypeMismatch(
                        f"activity {acting.id}: send to actor {self.id} at mailbox "
                        f"version {key}, which an earlier send already took"
                    )
                last = self._arrived_from.get(acting.id, -1)
                if key <= last:
                    raise ReplayTypeMismatch(
                        f"activity {acting.id}: send to actor {self.id} at mailbox "
                        f"version {key}, after its send at version {last}"
                    )
                self._arrived_from[acting.id] = key
                # The mailbox clock moves as in a recorded send, and the send
                # counts as replay progress.
                self.mailbox_entity.version += 1
                ex.progress += 1
            elif ex.mode is REPLAY:  # receiver-side: the place of its receive
                fifo = self._places.get((msg.sender_id, msg.promise_message_id))
                key = fifo.popleft() if fifo else next(self._places[None])
            else:
                key = self._next + len(self._mail)
                if sender_side and ex.mode is RECORD:
                    # The arrival index is the mailbox version here. The drain
                    # logs the send. Nothing parks on a mailbox's monitor and
                    # only replay reads progress, so the bump is all that
                    # ``increment_version`` would do.
                    acting.buffer.put(MSG_SEND, key)
                    self.mailbox_entity.version += 1
            if not (self._queued or self._mail):
                # The actor goes live: it counts once while it has mail or
                # a queued or running slice, not once per message.
                ex.count_live(1)
            self._mail[key] = msg
            self._schedule_if_needed()

    # -- scheduling ---------------------------------------------------------

    def _schedule_if_needed(self) -> None:
        # monitor held
        if not self._queued:
            self._queued = True
            self.execution.actor_pool.push_ready(self)

    def run_slice(self) -> None:
        """Process every currently runnable message, then yield the worker."""
        set_current_activity(self)
        try:
            self._drain()
        except BaseException as exc:  # noqa: BLE001 - replay divergence etc.
            self.execution.abort(exc)
        finally:
            set_current_activity(None)
            ex = self.execution
            with self._mailbox_lock:
                self._queued = False
                if self._next in self._mail:
                    self._schedule_if_needed()
                elif self._mail and self._places is not None:
                    # The awaited receive must still head the trace, or
                    # the pending mail can never run: fail at once.
                    try:
                        self.replay_queue.expect(MSG_RCVD, PROMMSG_RCVD)
                    except ReplayError as err:
                        ex.abort(err)
                elif not self._mail:
                    # Idle with no mail: the actor leaves the live count.
                    # Mail that cannot run yet keeps it there, so a replay
                    # awaiting a key that never comes ends in the watchdog.
                    ex.count_live(-1)

    # -- event loop ----------------------------------------------------------

    def _drain(self) -> None:
        ex = self.execution
        sender_side = ex.strategy is SENDER_SIDE
        mail, mailbox, lock = self._mail, self.mailbox_entity, self._mailbox_lock
        log = mailbox._log if sender_side and ex.mode is not PASSIVE else None
        traces_senders = not sender_side and ex.mode is not PASSIVE
        # At most the mail present at the slice's start: run_slice
        # reschedules the actor for what arrives meanwhile, so an actor
        # messaging itself cannot hold its worker for ever.
        budget = len(mail)
        while budget:
            # Keys are consecutive ints: take every one present from
            # ``_next`` up under one hold of the lock.
            with lock:
                first = key = self._next
                end = first + budget
                batch = []
                while key < end and key in mail:
                    batch.append(mail.pop(key))
                    key += 1
                self._next = key
            if not batch:
                return  # yield; rescheduled when the awaited key arrives
            budget -= len(batch)
            if log is not None:
                # The sends traced the versions; note the processing order
                # (== version order) for the run digest, all in one write.
                entries = [MSG_SEND] * (3 * len(batch))
                entries[::3] = [msg.sender_id for msg in batch]
                entries[2::3] = range(first, key)
                log.fromlist(entries)
            for msg in batch:
                if traces_senders:
                    # Receiver-side: trace who sent it, or in replay check
                    # it against the receive recorded at its place.
                    if msg.promise_message_id is not None:
                        record_interaction(self, PROMMSG_RCVD,
                                           msg.promise_message_id, entity=mailbox)
                    record_interaction(self, MSG_RCVD, msg.sender_id,
                                       entity=mailbox)
                self._execute(msg)

    def _execute(self, msg: Message) -> None:
        self.processed_log.append((msg.sender_id, msg.seq))
        try:
            (msg.callback or self._handler)(msg.payload)
        except (ExecutionAborted, ReplayError, TraceFormatError):
            # A replay divergence inside the handler (say, a send beyond
            # the recorded ones) or a recorded chunk that fails validation
            # aborts the run through run_slice.
            raise
        except BaseException as exc:  # noqa: BLE001
            # Handler errors are deterministic under replay; keep them in
            # ``errors`` and keep consuming events.
            self.errors.append(exc)
        finally:
            self.execution.actor_pool.note_processed()


class ActorPool:
    """Fixed-size worker pool multiplexing all actor event loops; the
    workers start with the first ready actor, so a run without actor mail
    starts none."""

    def __init__(self, execution, size: int):
        self.execution = execution
        self.size = size
        self._ready: "deque[ActorActivity]" = deque()
        self._ready_cond = threading.Condition()
        self._workers: list[threading.Thread] = []
        self._shutdown = False

    def push_ready(self, actor: ActorActivity) -> None:
        with self._ready_cond:
            if not self._workers:
                for i in range(self.size):
                    t = threading.Thread(target=self._worker_loop,
                                         name=f"actor-worker-{i}", daemon=True)
                    t.start()
                    self._workers.append(t)
            self._ready.append(actor)
            self._ready_cond.notify()

    def _worker_loop(self) -> None:
        while True:
            with self._ready_cond:
                while not self._ready and not self._shutdown:
                    self._ready_cond.wait()
                if self._shutdown:
                    return
                actor = self._ready.popleft()
            actor.run_slice()

    def note_processed(self) -> None:
        """Count one message as handled, for replay's progress clock; the
        live count moves per actor, in ``enqueue`` and ``run_slice``."""
        self.execution.progress += 1

    def shutdown(self) -> None:
        """Stop the workers once their running slices end; after an abort,
        actors still on the ready deque do not run."""
        with self._ready_cond:
            self._shutdown = True
            self._ready_cond.notify_all()
        for t in self._workers:
            t.join()


class Promise(VersionedEntity):
    """Placeholder for an asynchronous result.

    Messages and callbacks aimed at the result are buffered until
    resolution and then forwarded in stored order. Under the sender-side
    strategy the store/resolve race is made replayable by versioned
    events; under the receiver-side strategy the receiving actors' traces
    already pin down every delivery.
    """

    kind = "promise"

    def __init__(self):
        super().__init__()
        self._resolved = False
        self._value: Any = None
        # (target, message) pairs: a ``None`` target is the eventual value,
        # an actor target registered a callback.
        self._pending: list[tuple[Optional[ActorActivity], Message]] = []
        ex = self.execution
        self._traced = (ex.strategy is SENDER_SIDE
                        and ex.mode is not PASSIVE)

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise UsageError("promise not resolved yet")
        return self._value

    # -- sending to the eventual result --------------------------------------

    def send(self, payload: Any) -> None:
        """Send a message to the promise's eventual result (an actor)."""
        acting = current_activity()
        msg = Message(acting.id, payload, next(acting.msg_seq),
                      promise_message_id=next(acting.promise_msg_counter))
        self._store_or_forward(None, msg, acting)

    def when_resolved(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn(value)`` on the registering actor's event loop once
        the promise resolves."""
        acting = current_activity()
        if not isinstance(acting, ActorActivity):
            raise UsageError("promise callbacks require an actor activity")
        msg = Message(acting.id, None, next(acting.msg_seq),
                      promise_message_id=next(acting.promise_msg_counter), callback=fn)
        self._store_or_forward(acting, msg, acting)

    def _store_or_forward(self, target: Optional[ActorActivity], msg: Message,
                          acting: Activity) -> None:
        with self._lock:
            if self._stores(acting):
                if self._traced:
                    delay_interaction(acting, self, PROMISE_MSG_STORE)
                    increment_version(self)
                # Untraced (receiver-side or passive), the race needs no
                # events: the receiving actors' traces pin every delivery.
                self._pending.append((target, msg))
                return
            if not self._resolved:
                watchdog_wait(self._monitor, lambda: self._resolved, self.execution)
        self._forward(target, msg, acting)

    def _stores(self, acting) -> bool:
        """Whether an operation on the promise is stored until resolution
        (rather than forwarded); monitor held."""
        if not (self._traced and self.execution.mode is REPLAY):
            return not self._resolved
        # The sender's own trace tells us which side of the store/resolve
        # race this operation was on.
        acting.replay_queue.expect(PROMISE_MSG_STORE, MSG_SEND)
        return acting.replay_queue.peek()[0] == PROMISE_MSG_STORE

    # -- resolution -----------------------------------------------------------

    def resolve(self, value: Any) -> None:
        """Resolve at most once; forwards all stored messages and callbacks."""
        acting = current_activity()
        with self._lock:
            if self._resolved:
                raise AlreadyResolved("promise already resolved")
            if self._traced:
                delay_interaction(acting, self, PROMISE_RESOLVE)
                increment_version(self)
            self._resolved = True
            self._value = value
            pending, self._pending = self._pending, []
            if self._monitor._waiters:
                self._monitor.notify_all()
        for target, msg in pending:
            self._forward(target, msg, acting)

    def _forward(self, target: Optional[ActorActivity], msg: Message,
                 acting: Activity) -> None:
        if target is None:
            target = self._value
            if not isinstance(target, ActorActivity):
                raise UsageError(
                    "promise carrying pending messages resolved to a non-actor value"
                )
        else:
            msg.payload = self._value
        target.enqueue(msg, acting)


def send(target: ActorActivity, payload: Any) -> None:
    """Send a plain message to an actor from any activity."""
    acting = current_activity()
    msg = Message(acting.id, payload, next(acting.msg_seq))
    target.enqueue(msg, acting)
