"""PNG codec for the one dialect the pipeline writes.

`encode_png` writes (H, W, 3) uint8 as 8-bit RGB, filter 0 on every row,
one IDAT at a fixed zlib level, so equal pixels give equal bytes.
`decode_png` reads that layout alone (signature, 13-byte IHDR, one IDAT,
empty IEND, nothing after; every CRC checked) and refuses any other PNG.
It inflates at most one byte past the declared image, so a small IDAT
cannot expand into a large buffer.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ValidationError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6
_LAYOUT = (8, 2, 0, 0, 0)  # bit depth, colour type RGB, compression, filter, interlace


def _chunk(tag: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))


def encode_png(image: np.ndarray) -> bytes:
    """Serialize an (H, W, 3) uint8 array."""
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] != 3:
        raise ValidationError(
            f"PNG encoder expects (H, W, 3) uint8, got {image.shape} {image.dtype}"
        )
    height, width, _ = image.shape
    if height < 1 or width < 1:
        raise ValidationError("PNG image must have at least one pixel")
    # filter byte 0 in front of each raw scanline
    rows = np.zeros((height, 1 + width * 3), dtype=np.uint8)
    rows[:, 1:] = image.reshape(height, width * 3)
    ihdr = struct.pack(">II5B", width, height, *_LAYOUT)
    idat = zlib.compress(rows.tobytes(), _ZLIB_LEVEL)
    return _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _read_chunks(data: bytes) -> list[bytes]:
    """The bodies of IHDR, IDAT and IEND, which must be the only chunks."""
    bodies = []
    pos = len(_SIGNATURE)
    for tag in (b"IHDR", b"IDAT", b"IEND"):
        end = pos + 12 + int.from_bytes(data[pos : pos + 4], "big")
        if data[pos + 4 : pos + 8] != tag or end > len(data):
            raise ValidationError(f"PNG chunk {tag!r} is missing or truncated at byte {pos}")
        if zlib.crc32(data[pos + 4 : end - 4]) != int.from_bytes(data[end - 4 : end], "big"):
            raise ValidationError(f"PNG chunk {tag!r} fails its checksum")
        bodies.append(data[pos + 8 : end - 4])
        pos = end
    if pos != len(data):
        raise ValidationError("bytes after the PNG IEND chunk")
    return bodies


def decode_png(data: bytes) -> np.ndarray:
    """Parse PNG bytes in `encode_png`'s dialect into an (H, W, 3) uint8 array."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValidationError("PNG decoder expects bytes")
    data = bytes(data)
    if not data.startswith(_SIGNATURE):
        raise ValidationError("not a PNG stream (bad signature)")
    ihdr, idat, iend = _read_chunks(data)
    if len(ihdr) != 13 or iend:
        raise ValidationError("PNG IHDR or IEND chunk has the wrong length")
    width, height, *layout = struct.unpack(">II5B", ihdr)
    if tuple(layout) != _LAYOUT or width < 1 or height < 1:
        raise ValidationError(f"unsupported PNG header {width}x{height} {tuple(layout)}")

    size = height * (1 + 3 * width)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, size + 1)
    except (zlib.error, OverflowError) as exc:
        raise ValidationError(f"PNG pixel data fails to inflate: {exc}") from exc
    if len(raw) != size or not inflater.eof or inflater.unused_data:
        raise ValidationError("PNG pixel data has the wrong length")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + 3 * width)
    filters = rows[:, 0]
    if filters.any():
        raise ValidationError(f"PNG filter type {int(filters[filters != 0][0])} is not supported")
    return rows[:, 1:].copy().reshape(height, width, 3)
