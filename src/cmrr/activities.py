"""Activities: the units of execution that own trace event sequences.

Threads, CSP processes, and actors are all activities. Each activity has
a deterministic 64-bit identity derived from its position in the spawn
tree, so a replayed run assigns every parsed event queue to the same
activity that recorded it.
"""

from __future__ import annotations

import threading
from enum import Enum
from itertools import count
from typing import TYPE_CHECKING, Optional

from .errors import NotAnActivity, UsageError
from .tracing import RecordBuffer, ReplayQueue

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Execution


class ActivityKind(Enum):
    THREAD = "thread"
    ACTOR = "actor"
    PROCESS = "process"


# ---------------------------------------------------------------------------
# Spawn-path identity.
#
# A child's id is a pure function of (parent id, parent spawn counter), so
# record and replay compute identical ids as long as each activity spawns
# in the same order, which the deterministic-sequential-execution
# assumption guarantees. The id encodes the path of spawn counters from
# the root as a concatenation of self-delimiting nibble varints (3 data
# bits + 1 continuation bit per nibble). Prefix-free varints make the
# concatenation uniquely decodable, hence the mapping injective for every
# spawn tree that fits in 64 bits. The root id is 0. An id is the path with
# a leading 1 bit, minus one, so the path can be read back from the id.
# ---------------------------------------------------------------------------

_ID_BITS = 64


def child_activity_id(parent_id: int, counter: int) -> int:
    """The id of the ``counter``-th child spawned by activity ``parent_id``."""
    if counter < 0:
        raise ValueError("spawn counter must be non-negative")
    n = parent_id + 1
    length = n.bit_length() - 1
    code = n - (1 << length)
    more = True
    while more:  # 3-bit groups, least significant first; all but the last continue
        more = counter > 0x7
        code = code << 4 | more << 3 | counter & 0x7
        counter >>= 3
        length += 4
    if length >= _ID_BITS:
        raise OverflowError(
            "spawn tree too deep/wide for 64-bit activity ids "
            f"(needs {length + 1} bits)"
        )
    return ((1 << length) | code) - 1


class Activity:
    """One unit of execution: owns either a record buffer or a replay queue."""

    def __init__(self, execution: "Execution", activity_id: int, kind: ActivityKind,
                 name: str = ""):
        self.execution = execution
        self.id = activity_id
        self.kind = kind
        self.name = name or f"{kind.value}-{activity_id}"
        self.spawn_counter = count()
        self.promise_msg_counter = count()
        self.entity_seq = count()
        self.msg_seq = count()
        self.tx_context = None
        self.buffer: Optional[RecordBuffer] = None
        self.replay_queue: Optional[ReplayQueue] = None
        execution.attach_activity(self)

    def __repr__(self):
        return f"<Activity {self.name} id={self.id}>"

    def perturb_point(self) -> None:
        """Scheduling-perturbation site, reached at each traced interaction
        and each actor send. Does nothing; under a ``PerturbationPlan`` the
        execution shadows it per activity with ``PerturbationPlan.point_for``."""

    def finish_tracing(self) -> None:
        if self.buffer is not None:
            self.buffer.flush()


class ThreadActivity(Activity):
    """Activity backed 1:1 by an OS thread (THREAD and PROCESS kinds)."""

    def __init__(self, execution, activity_id, kind, entry, args, name=""):
        super().__init__(execution, activity_id, kind, name)
        self._thread = threading.Thread(target=self._bootstrap, args=(entry, args),
                                        name=self.name, daemon=True)
        self.done = False

    def start(self) -> None:
        self._thread.start()

    def _bootstrap(self, entry, args) -> None:
        set_current_activity(self)
        ex = self.execution
        try:
            entry(*args)
        except BaseException as exc:  # noqa: BLE001 - first failure aborts the run
            ex.abort(exc)
        finally:
            try:
                self.finish_tracing()
            except Exception as exc:  # noqa: BLE001 - a failing sink aborts the run
                ex.abort(exc)
            set_current_activity(None)
            ex.progress += 1
            self.done = True
            # Last act: once the count is down, the run may end.
            ex.count_live(-1)

    def join(self) -> None:
        """Wait for the activity to finish; abort- and watchdog-aware."""
        if getattr(_tls, "current", None) is self:
            raise UsageError("activity cannot join itself")
        self.execution.wait_live(lambda: self.done)


_tls = threading.local()


def current_activity() -> Activity:
    """The activity executing the caller.

    Inside an actor message handler this is the actor, not the pool worker
    running it. Raises NotAnActivity from unmanaged code.
    """
    act = getattr(_tls, "current", None)
    if act is None:
        raise NotAnActivity("no current activity; call from inside a managed execution")
    return act


def current_activity_or_none() -> Optional[Activity]:
    return getattr(_tls, "current", None)


def set_current_activity(activity: Optional[Activity]) -> None:
    _tls.current = activity
