"""Trace file writing, parsing, and sinks.

On-disk layout (all integers little-endian):

    header:  magic "CMRR" | u16 format version (= 1) | u16 strategy flags
    chunks:  u64 activity id | u32 payload length | payload octets

Strategy flags: bit 0 selects the actor recording strategy (0 sender-side,
1 receiver-side); all other bits must be zero. Payload length is always a
multiple of 9, so a chunk never splits an event. A parser only needs this
framing; it never interprets model semantics.
"""

from __future__ import annotations

import io
import struct
import threading
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterable

from .errors import TraceFormatError
from .events import _VALID_TAG_OCTETS, EVENT_SIZE, _word_unpacker
from .tracing import FLUSH_THRESHOLD, ReplayQueue

MAGIC = b"CMRR"
FORMAT_VERSION = 1
HEADER_SIZE = 8
CHUNK_HEADER_SIZE = 12

_HEADER_STRUCT = struct.Struct("<4sHH")
_CHUNK_STRUCT = struct.Struct("<QI")


class ActorStrategy(Enum):
    SENDER_SIDE = 0
    RECEIVER_SIDE = 1


def strategy_to_flags(strategy: ActorStrategy) -> int:
    return strategy.value & 0x1


def strategy_from_flags(flags: int) -> ActorStrategy:
    if flags & ~0x1:
        raise TraceFormatError(f"unsupported strategy flags 0x{flags:04x}")
    return ActorStrategy(flags & 0x1)


def write_header(fh: BinaryIO, strategy_flags: int) -> None:
    fh.write(_HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, strategy_flags))


def write_chunk(fh: BinaryIO, activity_id: int, payload: bytes) -> None:
    """Write one chunk, its header and payload, in one ``write``; a short
    write raises ``OSError``."""
    if len(payload) % EVENT_SIZE:
        raise TraceFormatError(
            f"chunk payload of {len(payload)} octets is not a multiple of {EVENT_SIZE}"
        )
    chunk = _CHUNK_STRUCT.pack(activity_id, len(payload)) + payload
    if fh.write(chunk) != len(chunk):
        raise OSError(f"short write of a {len(chunk)}-octet chunk")


def write_trace(path: str, strategy_flags: int,
                chunks: Iterable[tuple[int, bytes]]) -> None:
    """Write a complete trace file in one shot."""
    with open(path, "wb") as fh:
        write_header(fh, strategy_flags)
        for activity_id, payload in chunks:
            write_chunk(fh, activity_id, payload)


@dataclass
class TraceFile:
    """Parsed trace: per-activity event queues plus header metadata."""

    format_version: int
    strategy_flags: int
    queues: dict[int, ReplayQueue]
    chunk_count: int
    file_size: int

    @property
    def strategy(self) -> ActorStrategy:
        return strategy_from_flags(self.strategy_flags)


# Events unpacked per struct call, at most a full record buffer's chunk (456):
# a damaged trace's huge chunk compiles no huge format to cache.
DECODE_BLOCK = -(-FLUSH_THRESHOLD // EVENT_SIZE)


def decode_columns(payload: bytes) -> tuple[bytes, list[int]]:
    """Parse a chunk payload (a multiple of 9 octets) into two columns, its
    type tags (one octet per event) and its data words. An unregistered
    tag raises an error naming the first bad event's index."""
    tags = payload[::EVENT_SIZE]
    bad = tags.translate(None, _VALID_TAG_OCTETS)  # the record buffer's check
    if bad:  # the first bad tag is where its value first occurs
        raise TraceFormatError(f"unregistered event tag {bad[0]} at event {tags.index(bad[0])}")
    words: list[int] = []
    for first in range(0, len(tags), DECODE_BLOCK):
        block = _word_unpacker(min(DECODE_BLOCK, len(tags) - first))
        words += block.unpack_from(payload, first * EVENT_SIZE)
    return tags, words


def parse_trace(path: str) -> TraceFile:
    """Parse a trace file into one ordered event queue per activity.

    Chunks of the same activity are concatenated in file order. Dispatch
    happens purely on the 9-octet framing; unknown tags, a bad magic,
    an unsupported version, or a truncated chunk raise TraceFormatError.
    """
    with open(path, "rb") as fh:
        return parse_trace_bytes(fh.read())


def parse_trace_bytes(data: bytes) -> TraceFile:
    if len(data) < HEADER_SIZE:
        raise TraceFormatError("truncated header")
    magic, version, flags = _HEADER_STRUCT.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported format version {version}")
    strategy_from_flags(flags)  # validates reserved bits

    columns: dict[int, tuple[list[int], list[int]]] = {}
    offset = HEADER_SIZE
    chunk_count = 0
    while offset < len(data):
        if offset + CHUNK_HEADER_SIZE > len(data):
            raise TraceFormatError("truncated chunk header")
        activity_id, payload_len = _CHUNK_STRUCT.unpack_from(data, offset)
        start = offset + CHUNK_HEADER_SIZE
        if payload_len % EVENT_SIZE:
            raise TraceFormatError(
                f"chunk payload length {payload_len} is not a multiple of {EVENT_SIZE}"
            )
        if start + payload_len > len(data):
            raise TraceFormatError("truncated chunk payload")
        try:
            tags, words = decode_columns(data[start:start + payload_len])
        except TraceFormatError as exc:
            where = f"activity {activity_id}, chunk at offset {offset}"
            raise TraceFormatError(f"{where}: {exc}") from None
        all_types, all_words = columns.setdefault(activity_id, ([], []))
        all_types += tags
        all_words += words
        offset = start + payload_len
        chunk_count += 1

    queues = {aid: ReplayQueue(aid, types, words) for aid, (types, words) in columns.items()}
    return TraceFile(format_version=version, strategy_flags=flags, queues=queues,
                     chunk_count=chunk_count, file_size=len(data))


class TraceSink:
    """Destination for flushed record buffers; safe to call from any activity.

    A recording ``Execution`` calls ``start`` once, before the first chunk,
    with its strategy's header flags.
    """

    strategy_flags = 0

    def start(self, strategy_flags: int) -> None:
        self.strategy_flags = strategy_flags

    def submit(self, activity_id: int, payload: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class DiscardSink(TraceSink):
    """Accepts and drops chunks; measures tracing without write-back cost."""

    def submit(self, activity_id: int, payload: bytes) -> None:
        pass


class FileSink(TraceSink):
    """Appends chunks to a trace file synchronously, in the flushing activity.

    The file is unbuffered. The header goes out at ``start``, in one
    system call, and each chunk, its header and payload, in one more, so a
    process killed mid-run leaves the header and whole chunks, a file that
    ``parse_trace`` reads; only the events still in record buffers are
    lost. Chunk order in the file is hand-off order, which is irrelevant
    to parsing (queues are per-activity). The first write error, a short
    write included, stops further writes and is raised by ``close``, at
    the end of the run: raised in the flushing activity, an actor handler
    would swallow it.
    """

    def __init__(self, path: str):
        self._fh = open(path, "wb", buffering=0)
        self._lock = threading.Lock()
        self._error: OSError | None = None
        self.chunks_written = 0

    def start(self, strategy_flags: int) -> None:
        write_header(self._fh, strategy_flags)

    def submit(self, activity_id: int, payload: bytes) -> None:
        with self._lock:
            if self._error is None:
                try:
                    write_chunk(self._fh, activity_id, payload)
                    self.chunks_written += 1
                except OSError as exc:
                    self._error = exc

    def close(self) -> None:
        with self._lock:
            self._fh.close()
        if self._error is not None:
            raise self._error


class MemorySink(TraceSink):
    """Collects chunks in memory; test hook mirroring the file layout."""

    def __init__(self):
        self.chunks: list[tuple[int, bytes]] = []
        self._lock = threading.Lock()

    def submit(self, activity_id: int, payload: bytes) -> None:
        with self._lock:
            self.chunks.append((activity_id, payload))

    def as_bytes(self) -> bytes:
        buf = io.BytesIO()
        write_header(buf, self.strategy_flags)
        for activity_id, payload in self.chunks:
            write_chunk(buf, activity_id, payload)
        return buf.getvalue()
