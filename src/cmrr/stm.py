"""Software transactional memory with commit-order replay.

Transactions read and write working copies of transactional cells and
are retried indefinitely on conflict, so failed attempts have no
observable effect and the only nondeterminism is the order of successful
commits. A single global commit point serializes commit processing; each
successful commit records one TX_COMMIT event carrying the global commit
version. During replay a transaction whose conflict check passes commits
only when the global version matches its activity's next recorded event;
otherwise the attempt fails and the body runs again, which reproduces the
recorded commit order without reproducing the (irrelevant) retry counts.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

from .activities import current_activity
from .errors import TransactionUsageError
from .events import EventType
from .tracing import (
    REPLAY,
    VersionedEntity,
    increment_version,
    record_interaction,
    watchdog_wait,
)

T = TypeVar("T")

_CONFLICT = "conflict"
_NOT_OUR_TURN = "not-our-turn"
_COMMITTED = "committed"


class CommitPoint(VersionedEntity):
    """Global commit lock plus the recorded commit version counter.

    ``version`` follows the mode-gated increment discipline and is what
    events carry; ``stamp`` is an internal always-on counter used for
    conflict detection so passive runs stay correct.
    """

    kind = "commit"

    def __init__(self, execution):
        super().__init__(execution=execution)
        self.stamp = 0


class TxRef:
    """A transactional cell. Read and write inside ``atomic`` bodies only
    (reads outside a transaction see the committed value)."""

    __slots__ = ("_value", "_stamp", "label")

    def __init__(self, value: Any = None, label: str = ""):
        self._value = value
        self._stamp = 0
        self.label = label

    def get(self) -> Any:
        ctx = _current_tx()
        if ctx is None:
            return self._value
        return ctx.read(self)

    def set(self, value: Any) -> None:
        ctx = _current_tx()
        if ctx is None:
            raise TransactionUsageError("TxRef.set outside a transaction")
        ctx.write(self, value)

    def __repr__(self):
        return f"<TxRef {self.label or hex(id(self))}>"


class TxContext:
    """Per-attempt working copies: observed stamps plus written values."""

    __slots__ = ("reads", "values", "writes", "commit_point")

    def __init__(self, commit_point: CommitPoint):
        self.commit_point = commit_point
        self.reads: dict[TxRef, int] = {}
        self.values: dict[TxRef, Any] = {}
        self.writes: dict[TxRef, Any] = {}

    def read(self, ref: TxRef) -> Any:
        if ref in self.writes:
            return self.writes[ref]
        if ref not in self.values:
            # First touch: copy value and stamp under the commit lock so
            # they are mutually consistent.
            with self.commit_point._monitor:
                self.values[ref] = ref._value
                self.reads[ref] = ref._stamp
        return self.values[ref]

    def write(self, ref: TxRef, value: Any) -> None:
        self.writes[ref] = value


def _current_tx() -> Optional[TxContext]:
    from .activities import current_activity_or_none

    act = current_activity_or_none()
    if act is None:
        return None
    return getattr(act, "tx_context", None)


def atomic(body: Callable[[], T]) -> T:
    """Run ``body`` as a transaction, retrying until it commits.

    The body must touch shared state only through TxRefs and be free of
    other side effects; it may run many times. User exceptions propagate
    after the attempt is discarded. Transactions are flat: nesting raises.
    """
    act = current_activity()
    ex = act.execution
    if getattr(act, "tx_context", None) is not None:
        raise TransactionUsageError("transactions cannot nest")
    commit_point = ex.commit_point
    while True:
        ctx = TxContext(commit_point)
        act.tx_context = ctx
        try:
            result = body()
        finally:
            act.tx_context = None
        status, seen_version = _try_commit(ctx, act)
        if status is _COMMITTED:
            return result
        if status is _NOT_OUR_TURN:
            # Another activity's commit is recorded next; sleep until the
            # global version moves instead of spinning the body.
            with commit_point._monitor:
                watchdog_wait(
                    commit_point._monitor,
                    lambda: commit_point.version != seen_version,
                    ex,
                )
        # conflict: retry immediately with fresh reads


def _try_commit(ctx: TxContext, act) -> tuple[str, int]:
    ex = act.execution
    commit_point = ctx.commit_point
    with commit_point._monitor:
        for ref, stamp in ctx.reads.items():
            if ref._stamp != stamp:
                return _CONFLICT, commit_point.version
        # Replay commits only at the version its trace head records;
        # record_interaction then checks and consumes that head.
        if (ex.mode is REPLAY
                and act.replay_queue.expect(EventType.TX_COMMIT).data != commit_point.version):
            return _NOT_OUR_TURN, commit_point.version
        record_interaction(act, EventType.TX_COMMIT, commit_point.version,
                           entity=commit_point)
        increment_version(commit_point)
        commit_point.stamp += 1
        stamp = commit_point.stamp
        for ref, value in ctx.writes.items():
            ref._value = value
            ref._stamp = stamp
        return _COMMITTED, commit_point.version
