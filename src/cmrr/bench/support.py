"""Shared helpers for the benchmark programs."""

from __future__ import annotations

import hashlib
from typing import Optional

from ..errors import UsageError
from ..locks import RRCondition, RRLock


class CompletionLatch:
    """Countdown latch built on the replayable lock/condition primitives,
    so benchmark completion signaling is itself part of the recorded run."""

    def __init__(self, count: int):
        self._lock = RRLock()
        self._cond = RRCondition(self._lock)
        self._count = count

    def count_down(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count <= 0:
                self._cond.signal_all()

    def wait(self) -> None:
        with self._lock:
            while self._count > 0:
                self._cond.wait()


def sequence_digest(items) -> str:
    """Stable short digest of an observable event sequence."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def int_param(params: dict, key: str, default: int, least: Optional[int] = None) -> int:
    """``params[key]``, else ``default``, as an integer of at least
    ``least``: a benchmark refuses a value it could not finish with before
    it starts an activity."""
    value = params.get(key, default)
    try:
        number = int(value)
    except ValueError:
        raise UsageError(f"parameter {key} expects an integer, got {value!r}") from None
    if least is not None and number < least:
        raise UsageError(f"parameter {key} must be at least {least}, got {number}")
    return number
