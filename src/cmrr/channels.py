"""Unbuffered rendezvous channels between activities.

A write completes only when paired with a read and vice versa. Each
completed rendezvous bumps the channel version exactly once, and both the
read and the write event of a rendezvous carry the version from before
that bump: the write records it at its claim, the read the version it was
paired at. With a single reader and single writer a channel is
deterministic; with competing readers or writers the recorded versions pin
the pairing, and replay delays each operation until the channel reaches
its recorded rendezvous.

A writer first claims the channel at the interaction gate, parked on
``_claims`` while another writer's value waits in the slot. In replay the
recorded-version check joins that predicate in one wait;
``Condition.wait`` releases the channel lock while waiting, so a
not-yet-due operation still never holds the channel hostage. The side of
a rendezvous that arrives second pairs the two, under the channel lock,
and only the side that arrived first parks:

* a reader that arrives first files a ``_ParkedRead`` in ``_readers`` and
  parks on ``_monitor``, the entity monitor. The writer that claims the
  channel next hands its value straight to it: it stores the value and the
  rendezvous version in the record, logs the reader's read, bumps the
  version, wakes the reader and returns at once, as Go's unbuffered send
  to a waiting receiver does. The writer may return before the reader
  runs: the pairing and its version were fixed under the lock, and the
  reader records its event at the handed version whenever it gets the
  lock back;
* a writer that finds no eligible parked reader fills the slot and parks
  on ``_taken``. The reader that arrives takes the value, records and logs
  its read, bumps the version and wakes the writer, which frees the claim.

So the side that arrives second bumps the version, once per rendezvous,
and logs the read just before the write that the claim logged: the log
holds a read and then a write at each version in turn, the digest order.

The end of either kind of rendezvous wakes the parked claims. In replay
each claim waits for its own recorded version, which the gate files in
``_claims.due`` while it is parked, so they are woken only when one is due.

Outside replay every parked reader is eligible, first come first served.
In replay a reader is eligible only when the version it awaits, the data
word of its ``CHANNEL_READ`` trace head, equals the channel's version, so
competing readers pair exactly as recorded. A parked reader never needs
the slot: the slot is filled only when no parked reader is eligible, and
the version does not move while it is full.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .activities import current_activity
from .events import CHANNEL_READ, CHANNEL_WRITE
from .tracing import (PASSIVE, REPLAY, Monitor, VersionedEntity, delay_interaction,
                      increment_version, record_interaction, watchdog_wait)


class _ParkedRead:
    """A reader parked for a hand-off, of activity ``activity_id``. ``due``
    is the version it awaits, its recorded one in replay and None
    otherwise; the writer that pairs with it sets ``value`` and ``version``,
    the rendezvous version, and logs the read in the channel's log."""

    __slots__ = ("activity_id", "due", "value", "version")

    def __init__(self, activity_id: int, due: Optional[int]):
        self.activity_id = activity_id
        self.due = due
        self.version: Optional[int] = None

    def handed(self) -> bool:
        return self.version is not None


class Channel(VersionedEntity):
    """Zero-capacity rendezvous channel, safe for many readers and writers."""

    kind = "channel"

    def __init__(self):
        super().__init__()
        self._slot: Any = None
        self._slot_full = False
        # One rendezvous at a time through the slot: the writer is "active"
        # from filling it until it has seen its value taken, so no new claim
        # can start in between.
        self._writer_active = False
        self._readers: deque[_ParkedRead] = deque()
        self._claims = Monitor(self._lock)
        self._taken = Monitor(self._lock)

    def check_version_completeness(self):
        # A read and then a write at each version 0..V-1 in turn.
        logged = list(zip(self._log[1::3], self._log[2::3]))
        expected = [(t, v) for v in range(self.version) for t in (CHANNEL_READ, CHANNEL_WRITE)]
        if logged != expected:
            return (f"channel {self.entity_id}: log {logged[:10]} is not a read and a "
                    f"write at each version 0..{self.version - 1} in turn")
        return None

    def _log_read(self, activity_id: int) -> None:
        """Log a read at the current version just before the write that the
        rendezvous's claim logged last; monitor held, outside passive mode."""
        for word in (activity_id, CHANNEL_READ, self.version):
            self._log.insert(-3, word)

    def write(self, value: Any) -> None:
        """Block until ``value`` is paired with a read.

        Claims the channel at the gate, parked on ``_claims``. An eligible
        parked reader then gets ``value`` by hand-off: the writer bumps the
        version and wakes that reader (``increment_version`` does, except
        in passive mode, which bumps nothing), and returns without waiting
        for it to run. Otherwise the writer fills the slot and parks on
        ``_taken`` until a reader takes the value and bumps the version.
        Either way it then wakes the writers parked on ``_claims``; in
        replay, only when one of them awaits the new version."""
        activity = current_activity()
        with self._lock:
            delay_interaction(activity, self, CHANNEL_WRITE,
                              lambda: not self._writer_active, self._claims)
            reader = self._eligible_reader()
            if reader is not None:
                reader.value = value
                reader.version = self.version
                if self.execution.mode is not PASSIVE:
                    self._log_read(reader.activity_id)
                    increment_version(self)
                elif self._monitor.parked:
                    self._monitor.notify_all()
            else:
                self._writer_active = True
                self._slot = value
                self._slot_full = True
                watchdog_wait(self._taken, lambda: not self._slot_full, self.execution)
                self._writer_active = False
            claims = self._claims
            if claims.parked and (not claims.due or self.version in claims.due):
                claims.notify_all()

    def _eligible_reader(self) -> Optional[_ParkedRead]:
        """Remove and return the first parked reader due at the current
        version, or any first one outside replay; monitor held."""
        for reader in self._readers:
            if reader.due is None or reader.due == self.version:
                self._readers.remove(reader)
                return reader
        return None

    def read(self) -> Any:
        """Block until paired with a writer; returns the written value.

        With a value waiting in the slot (in replay: and the channel at
        this read's recorded version), takes it, records the read, bumps
        the version and wakes the writer parked on ``_taken``. Otherwise
        parks on ``_monitor`` until a writer hands it a value, and then
        records the read at the version it was handed: the writer has
        already bumped the version and may have gone on, but the pairing
        was fixed at the hand-off. In replay the trace head is checked
        before parking and consumed when the read is recorded."""
        activity = current_activity()
        with self._lock:
            due = (activity.replay_queue.expect(CHANNEL_READ)
                   if self.execution.mode is REPLAY else None)
            if self._slot_full and (due is None or due == self.version):
                record_interaction(activity, CHANNEL_READ, self.version)
                value = self._slot
                self._slot = None
                self._slot_full = False
                if self.execution.mode is not PASSIVE:
                    self._log_read(activity.id)
                    increment_version(self)
                if self._taken.parked:
                    self._taken.notify()
                return value
            reader = _ParkedRead(activity.id, due)
            self._readers.append(reader)
            try:
                watchdog_wait(self._monitor, reader.handed, self.execution)
            finally:
                # A read that failed while parked must never be handed a value.
                if reader.version is None:
                    self._readers.remove(reader)
            record_interaction(activity, CHANNEL_READ, reader.version)
            return reader.value
