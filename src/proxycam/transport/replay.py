"""Packet framing: one reader and one writer for files and stream sockets.

A record is a u32 little-endian byte count followed by the packet bytes.
`iter_packets` reads records through any `read(n)` callable (a file's
`read` or a socket's `recv`), and `PacketWriter` writes them through any
`write` callable (a file's `write` or a socket's `sendall`). The codec
itself is transport-agnostic.
"""

from __future__ import annotations

import socket
import struct
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..errors import ValidationError

_LEN = struct.Struct("<I")
_READ_CHUNK = 1 << 16  # most bytes asked of one read

CONNECT_RETRIES = 3
CONNECT_BACKOFF_MS = (100, 200, 400)


def write_packets(path: str | Path, packets: Iterable[bytes]) -> int:
    with open(path, "wb") as fh:
        writer = PacketWriter(fh.write)
        for packet in packets:
            writer.send(packet)
    return writer.count


def read_packets(path: str | Path) -> Iterator[bytes]:
    with open(path, "rb") as fh:
        yield from iter_packets(fh.read)


class PacketWriter:
    """Frame packets into a `write` callable, one call per record."""

    def __init__(self, write: Callable[[bytes], object]):
        self._write = write
        self.count = 0

    def send(self, packet: bytes) -> None:
        self._write(_LEN.pack(len(packet)) + packet)
        self.count += 1


def _read_upto(read: Callable[[int], bytes], n: int) -> bytes:
    # reads of at most _READ_CHUNK: a length prefix that claims more than
    # arrives costs only the bytes that do
    chunks = []
    got = 0
    while got < n:
        chunk = read(min(n - got, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def iter_packets(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """Each framed packet, until the stream ends between two records.

    A stream that ends inside a record, header or body, raises
    ValidationError.
    """
    while True:
        header = _read_upto(read, _LEN.size)
        if not header:
            return
        if len(header) == _LEN.size:
            (length,) = _LEN.unpack(header)
            packet = _read_upto(read, length)
            if len(packet) == length:
                yield packet
                continue
        raise ValidationError("packet stream ends inside a record")


def connect_with_retry(address: tuple[str, int]) -> socket.socket:
    """Dial the sink, retrying with the documented backoff schedule."""
    last: Exception | None = None
    for attempt in range(CONNECT_RETRIES):
        try:
            return socket.create_connection(address, timeout=10.0)
        except OSError as exc:
            last = exc
            if attempt < CONNECT_RETRIES - 1:
                time.sleep(CONNECT_BACKOFF_MS[attempt] / 1000.0)
    raise ConnectionError(f"could not reach sink {address}: {last}") from last
