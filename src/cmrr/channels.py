"""Unbuffered rendezvous channels between activities.

A write completes only when paired with a read and vice versa. Each
completed rendezvous bumps the channel version exactly once (the write
side owns the increment), and both the read and the write event of a
rendezvous carry that same version. With a single reader and single
writer a channel is deterministic; with competing readers or writers the
recorded versions pin the pairing, and replay delays each operation until
the channel reaches its recorded rendezvous.

Each side passes the interaction gate once: a writer once no other
rendezvous is in progress, a reader once a value waits in the slot. In
replay the recorded-version check joins that predicate in one wait inside
the channel monitor; ``Condition.wait`` releases the monitor while
waiting, so a not-yet-due operation still never holds the channel hostage.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from .activities import current_activity
from .events import CHANNEL_READ, CHANNEL_WRITE
from .tracing import VersionedEntity, delay_interaction, increment_version, watchdog_wait


class Channel(VersionedEntity):
    """Zero-capacity rendezvous channel, safe for many readers and writers."""

    kind = "channel"

    def __init__(self):
        super().__init__()
        self._slot: Any = None
        self._slot_full = False
        # One rendezvous at a time: the writer is "active" from claiming the
        # channel until the version increment lands, after its value is
        # taken, so no new claim can start in between.
        self._writer_active = False

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
        """Block until a reader takes ``value``; owns the version increment."""
        with self._lock:
            delay_interaction(current_activity(), self, CHANNEL_WRITE,
                              lambda: not self._writer_active)
            self._writer_active = True
            self._slot = value
            self._slot_full = True
            if self._monitor.parked:
                self._monitor.notify_all()
            # Rendezvous: wait for the paired take to complete.
            watchdog_wait(self._monitor, lambda: not self._slot_full, self.execution)
            increment_version(self)
            self._writer_active = False
            if self._monitor.parked:
                self._monitor.notify_all()

    def read(self) -> Any:
        """Block until paired with a writer; returns the written value."""
        with self._lock:
            delay_interaction(current_activity(), self, CHANNEL_READ,
                              lambda: self._slot_full)
            value = self._slot
            self._slot = None
            self._slot_full = False
            if self._monitor.parked:
                self._monitor.notify_all()
            return value
