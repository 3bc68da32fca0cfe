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
``_claims`` while another writer waits in the slot. In replay the
recorded-version check joins that predicate in one wait;
``Condition.wait`` releases the channel lock while waiting, so a
not-yet-due operation still never holds the channel hostage.

Each side of a rendezvous that arrives first files one ``_Rendezvous``
record and parks on ``_monitor``, the entity monitor: a reader in
``_readers``, a writer that finds no eligible parked reader in ``_slot``,
with its value. The side that arrives second pairs the two under the
channel lock and completes the record in ``Channel._complete``: it stores
the rendezvous version, logs the read just before the write that the
claim logged, bumps the version, which wakes the first side, and wakes the
parked claims. A writer that hands its value to a parked reader returns at
once, as Go's unbuffered send to a waiting receiver does; the pairing and
its version were fixed under the lock, and the reader records its event at
the handed version whenever it gets the lock back. So a channel has two
monitors, ``_monitor`` for the first sides and ``_claims`` for claims, and
the log holds a read and then a write at each version in turn, the digest
order. In replay each claim waits for its own recorded version, which the
gate files in ``_claims.due`` while it is parked, so claims are woken only
when one is due.

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


class _Rendezvous:
    """The side of a rendezvous that arrived first, of activity
    ``activity_id``: a reader parked in ``_readers``, or the writer whose
    ``value`` waits in ``_slot``. ``due`` is the version a reader awaits,
    its recorded one in replay and None otherwise. The side that arrives
    second completes it: ``Channel._complete`` sets ``version``, the
    rendezvous version, and a writer handing off also sets ``value``."""

    __slots__ = ("activity_id", "due", "value", "version")

    def __init__(self, activity_id: int, due: Optional[int], value: Any = None):
        self.activity_id = activity_id
        self.due = due
        self.value = value
        self.version: Optional[int] = None

    def handed(self) -> bool:
        return self.version is not None


class Channel(VersionedEntity):
    """Zero-capacity rendezvous channel, safe for many readers and writers."""

    kind = "channel"

    def __init__(self):
        super().__init__()
        # The writer parked for its take; a claim waits while it is set.
        self._slot: Optional[_Rendezvous] = None
        self._readers: deque[_Rendezvous] = deque()
        self._claims = Monitor(self._lock)

    def check_version_completeness(self):
        # A read and then a write at each version 0..V-1 in turn.
        logged = list(zip(self._log[1::3], self._log[2::3]))
        expected = [(t, v) for v in range(self.version) for t in (CHANNEL_READ, CHANNEL_WRITE)]
        if logged != expected:
            return (f"channel {self.entity_id}: log {logged[:10]} is not a read and a "
                    f"write at each version 0..{self.version - 1} in turn")
        return None

    def _complete(self, first: _Rendezvous, reader_id: int) -> None:
        """Complete the rendezvous whose first side is ``first``, parked on
        ``_monitor``, with the side that arrived second; ``reader_id`` is
        the reading activity. Monitor held, the claim already logged.

        Sets the rendezvous version in ``first``, logs the read just before
        the claim's write, bumps the version, which wakes ``first`` (in
        passive mode, which bumps nothing, only wakes ``_monitor``), and
        wakes the writers parked on ``_claims``; in replay, only when one
        of them awaits the new version."""
        first.version = self.version
        if self.execution.mode is not PASSIVE:
            for word in (reader_id, CHANNEL_READ, self.version):
                self._log.insert(-3, word)
            increment_version(self)
        elif self._monitor._waiters:
            self._monitor.notify_all()
        claims = self._claims
        if claims._waiters and (not claims.due or self.version in claims.due):
            claims.notify_all()

    def write(self, value: Any) -> None:
        """Block until ``value`` is paired with a read.

        Claims the channel at the gate, parked on ``_claims`` while the slot
        holds a writer. An eligible parked reader then gets ``value`` by
        hand-off, and the writer returns without waiting for it to run.
        Otherwise the writer files itself in the slot and parks on
        ``_monitor`` until a reader takes the value."""
        activity = current_activity()
        with self._lock:
            delay_interaction(activity, self, CHANNEL_WRITE,
                              lambda: self._slot is None, self._claims)
            reader = self._eligible_reader()
            if reader is not None:
                reader.value = value
                self._complete(reader, reader.activity_id)
            else:
                mine = self._slot = _Rendezvous(activity.id, None, value)
                watchdog_wait(self._monitor, mine.handed, self.execution)

    def _eligible_reader(self) -> Optional[_Rendezvous]:
        """Remove and return the first parked reader due at the current
        version, or any first one outside replay; monitor held."""
        for reader in self._readers:
            if reader.due is None or reader.due == self.version:
                self._readers.remove(reader)
                return reader
        return None

    def read(self) -> Any:
        """Block until paired with a writer; returns the written value.

        With a writer in the slot (in replay: and the channel at this
        read's recorded version), records the read, empties the slot and
        completes the writer's rendezvous. Otherwise parks on ``_monitor``
        until a writer hands it a value, and then records the read at the
        version it was handed: the writer has already bumped the version
        and may have gone on, but the pairing was fixed at the hand-off.
        In replay the trace head is checked before parking and consumed
        when the read is recorded."""
        activity = current_activity()
        with self._lock:
            due = (activity.replay_queue.expect(CHANNEL_READ)
                   if self.execution.mode is REPLAY else None)
            writer = self._slot
            if writer is not None and (due is None or due == self.version):
                record_interaction(activity, CHANNEL_READ, self.version)
                self._slot = None
                self._complete(writer, activity.id)
                return writer.value
            reader = _Rendezvous(activity.id, due)
            self._readers.append(reader)
            try:
                watchdog_wait(self._monitor, reader.handed, self.execution)
            finally:
                # A read that failed while parked must never be handed a value.
                if reader.version is None:
                    self._readers.remove(reader)
            record_interaction(activity, CHANNEL_READ, reader.version)
            return reader.value
