"""Unbuffered rendezvous channels between activities.

A write completes only when paired with a read and vice versa. Each
completed rendezvous bumps the channel version exactly once, and both the
read and the write event of a rendezvous carry the version from before
that bump: the write records it at its claim, the read at its gate. With
a single reader and single writer a channel is deterministic; with
competing readers or writers the recorded versions pin the pairing, and
replay delays each operation until the channel reaches its recorded
rendezvous.

Each side passes the interaction gate once: a writer once no other
rendezvous is in progress, a reader once a value waits in the slot. In
replay the recorded-version check joins that predicate in one wait;
``Condition.wait`` releases the channel lock while waiting, so a
not-yet-due operation still never holds the channel hostage.

Three kinds of waiter park on three ``Monitor``s over the one channel
lock, and each state change wakes only the kind it can release:

* readers park on ``_monitor``, the entity monitor; a fill wakes them;
* writers waiting to claim the channel park on ``_claims``; the end of a
  rendezvous wakes them all, since in replay each waits for its own
  recorded version;
* the active writer, waiting for its value to be taken, parks on
  ``_taken``; the take wakes it.

The take owns the version bump: ``read`` empties the slot and calls
``increment_version``, whose wake-up reaches only other readers, then
wakes the writer. The writer ends the rendezvous and frees the claim.

One wake-up is early on purpose. When the writer that ends a rendezvous
also wrote the previous one on this channel, it is streaming values to
this channel and its next fill follows at once; so the parked readers
are woken then, not at that fill. A reader woken this way usually gets
the lock back only after the next value is in the slot. Without this
wake a one-writer pipeline (sales-pipeline) made about half again as
many involuntary thread switches and ran 4-6 % slower.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from .activities import current_activity
from .events import CHANNEL_READ, CHANNEL_WRITE
from .tracing import (Monitor, VersionedEntity, delay_interaction, increment_version,
                      watchdog_wait)


class Channel(VersionedEntity):
    """Zero-capacity rendezvous channel, safe for many readers and writers."""

    kind = "channel"

    def __init__(self):
        super().__init__()
        self._slot: Any = None
        self._slot_full = False
        # One rendezvous at a time: the writer is "active" from claiming the
        # channel until it has seen its value taken, so no new claim can
        # start in between.
        self._writer_active = False
        # The activity that wrote the last completed rendezvous.
        self._last_writer = None
        self._claims = Monitor(self._lock)
        self._taken = Monitor(self._lock)

    def digest_lines(self):
        # Each rendezvous logs its write before its read (a read passes
        # only once the slot is full). Digests have always hashed the read
        # first, so keep the (version, type) order.
        return sorted(self._log, key=itemgetter(2, 1, 0))

    def check_version_completeness(self):
        # One read and one write event per rendezvous, both carrying the
        # rendezvous version.
        reads = sorted(d for (_, t, d) in self._log if t == CHANNEL_READ)
        writes = sorted(d for (_, t, d) in self._log if t == CHANNEL_WRITE)
        expected = list(range(self.version))
        if reads != expected or writes != expected:
            return (f"channel {self.entity_id}: reads {reads[:10]} / writes "
                    f"{writes[:10]} do not pair over 0..{self.version - 1}")
        return None

    def write(self, value: Any) -> None:
        """Block until a reader takes ``value``.

        Claims the channel at the gate, parked on ``_claims``, fills the slot
        and waits on ``_taken`` for the take, which bumps the version. Then
        frees the claim for the writers parked on ``_claims`` and, when the
        same activity wrote the previous rendezvous, wakes the readers
        early (see the module docstring)."""
        activity = current_activity()
        with self._lock:
            delay_interaction(activity, self, CHANNEL_WRITE,
                              lambda: not self._writer_active, self._claims)
            self._writer_active = True
            self._slot = value
            self._slot_full = True
            if self._monitor.parked:
                self._monitor.notify_all()
            watchdog_wait(self._taken, lambda: not self._slot_full, self.execution)
            self._writer_active = False
            if self._claims.parked:
                self._claims.notify_all()
            if self._last_writer is activity and self._monitor.parked:
                self._monitor.notify_all()
            self._last_writer = activity

    def read(self) -> Any:
        """Block until paired with a writer; returns the written value and
        bumps the version."""
        with self._lock:
            delay_interaction(current_activity(), self, CHANNEL_READ,
                              lambda: self._slot_full)
            value = self._slot
            self._slot = None
            self._slot_full = False
            increment_version(self)
            if self._taken.parked:
                self._taken.notify()
            return value
