"""Packet transports: length-prefixed record files and stream sockets.

Both carry the same framing: a u32 little-endian byte count followed by
the packet bytes. The codec itself is transport-agnostic.
"""

from __future__ import annotations

import socket
import struct
import time
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ValidationError

_LEN = struct.Struct("<I")

CONNECT_RETRIES = 3
CONNECT_BACKOFF_MS = (100, 200, 400)


def write_packets(path: str | Path, packets: Iterable[bytes]) -> int:
    with open(path, "wb") as fh:
        writer = PacketWriter(fh)
        for packet in packets:
            writer.send(packet)
    return writer.count


def read_packets(path: str | Path) -> Iterator[bytes]:
    with open(path, "rb") as fh:
        while True:
            header = fh.read(_LEN.size)
            if not header:
                return
            if len(header) < _LEN.size:
                raise ValidationError("replay file ends inside a record header")
            (length,) = _LEN.unpack(header)
            packet = fh.read(length)
            if len(packet) < length:
                raise ValidationError("replay file ends inside a record body")
            yield packet


class PacketWriter:
    """Append packets to an open file object with record framing."""

    def __init__(self, fh):
        self._fh = fh
        self.count = 0

    def send(self, packet: bytes) -> None:
        self._fh.write(_LEN.pack(len(packet)))
        self._fh.write(packet)
        self.count += 1


def send_packet(sock: socket.socket, packet: bytes) -> None:
    sock.sendall(_LEN.pack(len(packet)) + packet)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_packet(sock: socket.socket) -> bytes | None:
    """One framed packet, or None on a clean end of stream."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    packet = _recv_exact(sock, length)
    if packet is None:
        raise ValidationError("peer closed mid-packet")
    return packet


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
