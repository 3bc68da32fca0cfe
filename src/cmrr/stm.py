"""Software transactional memory with commit-order replay.

Transactions read and write working copies of transactional cells and
are retried indefinitely on conflict, so failed attempts have no
observable effect and the only nondeterminism is the order of successful
commits. A single global commit point serializes commit processing; each
successful commit records one TX_COMMIT event carrying the global commit
version. During replay an attempt first waits, once and inside the commit
point's monitor, until the global version reaches its activity's next
recorded commit; it then commits if its reads are still current and
otherwise runs the body again at that turn, which reproduces the recorded
commit order without reproducing the (irrelevant) retry counts.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

from .activities import current_activity, current_activity_or_none
from .errors import TransactionUsageError
from .events import TX_COMMIT
from .tracing import (
    REPLAY,
    VersionedEntity,
    increment_version,
    record_interaction,
    watchdog_wait,
)

T = TypeVar("T")


class CommitPoint(VersionedEntity):
    """Global commit lock plus the recorded commit version counter."""

    kind = "commit"


class TxRef:
    """A transactional cell. Read and write inside ``atomic`` bodies only
    (reads outside a transaction see the committed value)."""

    __slots__ = ("_value", "_stamp", "label")

    def __init__(self, value: Any = None, label: str = ""):
        self._value = value
        self._stamp = 0  # commits that wrote the cell, in every mode
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
    """Per-attempt working copies: (value, stamp) of each first read, plus
    written values."""

    __slots__ = ("reads", "writes", "commit_point")

    def __init__(self, commit_point: CommitPoint):
        self.commit_point = commit_point
        self.reads: dict[TxRef, tuple[Any, int]] = {}
        self.writes: dict[TxRef, Any] = {}

    def read(self, ref: TxRef) -> Any:
        if ref in self.writes:
            return self.writes[ref]
        seen = self.reads.get(ref)
        if seen is None:
            # First touch: copy value and stamp under the commit lock so
            # they are mutually consistent.
            with self.commit_point._lock:
                seen = self.reads[ref] = (ref._value, ref._stamp)
        return seen[0]

    def write(self, ref: TxRef, value: Any) -> None:
        self.writes[ref] = value


def _current_tx() -> Optional[TxContext]:
    act = current_activity_or_none()
    return None if act is None else act.tx_context


def atomic(body: Callable[[], T]) -> T:
    """Run ``body`` as a transaction, retrying until it commits.

    The body must touch shared state only through TxRefs and be free of
    other side effects; it may run many times. User exceptions propagate
    after the attempt is discarded. Transactions are flat: nesting raises.
    """
    act = current_activity()
    if act.tx_context is not None:
        raise TransactionUsageError("transactions cannot nest")
    commit_point = act.execution.commit_point
    while True:
        ctx = TxContext(commit_point)
        act.tx_context = ctx
        try:
            result = body()
        finally:
            act.tx_context = None
        if _try_commit(ctx, act):
            return result
        # conflict: retry with fresh reads


def _try_commit(ctx: TxContext, act) -> bool:
    """Commit ``ctx`` unless a cell it read has been written since; replay
    first waits for the activity's recorded commit version, and
    record_interaction then checks and consumes that head."""
    ex = act.execution
    commit_point = ctx.commit_point
    with commit_point._lock:
        if ex.mode is REPLAY:
            version = act.replay_queue.expect(TX_COMMIT)
            if commit_point.version != version:
                watchdog_wait(commit_point._monitor,
                              lambda: commit_point.version == version, ex)
        for ref, (_, stamp) in ctx.reads.items():
            if ref._stamp != stamp:
                return False
        record_interaction(act, TX_COMMIT, commit_point.version,
                           entity=commit_point)
        increment_version(commit_point)
        for ref, value in ctx.writes.items():
            ref._value = value
            ref._stamp += 1
        return True
