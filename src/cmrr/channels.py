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

from typing import Any

from .activities import current_activity
from .events import EventType
from .tracing import VersionedEntity, delay_interaction, increment_version, watchdog_wait


class Channel(VersionedEntity):
    """Zero-capacity rendezvous channel, safe for many readers and writers."""

    kind = "channel"

    def __init__(self):
        super().__init__()
        self._slot: Any = None
        self._slot_full = False
        # One rendezvous at a time: the writer is "active" from claiming the
        # channel until the version increment lands; the post-take window
        # blocks new claims until then.
        self._writer_active = False
        self._post_take = False

    def digest_lines(self):
        # Within one rendezvous the read and write claims race benignly in
        # both modes; canonicalize by (version, type) so digests only
        # depend on the pairing order, which is what replay guarantees.
        return sorted(self._log, key=lambda entry: (entry[2], entry[1], entry[0]))

    def check_version_completeness(self):
        # One read and one write event per rendezvous, both carrying the
        # rendezvous version.
        reads = sorted(d for (_, t, d) in self._log if t == EventType.CHANNEL_READ)
        writes = sorted(d for (_, t, d) in self._log if t == EventType.CHANNEL_WRITE)
        expected = list(range(self.version))
        if reads != expected or writes != expected:
            return (f"channel {self.entity_id}: reads {reads[:10]} / writes "
                    f"{writes[:10]} do not pair over 0..{self.version - 1}")
        return None

    def write(self, value: Any) -> None:
        """Block until a reader takes ``value``; owns the version increment."""
        with self._lock:
            delay_interaction(current_activity(), self, EventType.CHANNEL_WRITE,
                              lambda: not self._writer_active and not self._post_take)
            self._writer_active = True
            self._slot = value
            self._slot_full = True
            if self._monitor.parked:
                self._monitor.notify_all()
            # Rendezvous: wait for the paired take to complete.
            watchdog_wait(self._monitor, lambda: self._post_take, self.execution)
            increment_version(self)
            self._post_take = False
            self._writer_active = False
            if self._monitor.parked:
                self._monitor.notify_all()

    def read(self) -> Any:
        """Block until paired with a writer; returns the written value."""
        with self._lock:
            delay_interaction(current_activity(), self, EventType.CHANNEL_READ,
                              lambda: self._slot_full and not self._post_take)
            value = self._slot
            self._slot = None
            self._slot_full = False
            self._post_take = True
            if self._monitor.parked:
                self._monitor.notify_all()
            return value
