"""Minimal PNG codec for 8-bit RGB / RGBA rasters.

Encoding is canonical on purpose: filter type 0 on every row and a fixed
zlib level, so the same pixels always produce the same bytes. The decoder
accepts any of the five standard filters so externally produced files that
fit the supported color types still load.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ValidationError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", zlib.crc32(tag + body))
    )


def encode_png(image: np.ndarray) -> bytes:
    """Serialize an (H, W, 3) or (H, W, 4) uint8 array."""
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] not in (3, 4):
        raise ValidationError(
            f"PNG encoder expects (H, W, 3|4) uint8, got {image.shape} {image.dtype}"
        )
    height, width, channels = image.shape
    if height < 1 or width < 1:
        raise ValidationError("PNG image must have at least one pixel")
    color_type = 2 if channels == 3 else 6

    # filter byte 0 in front of each raw scanline
    rows = np.empty((height, 1 + width * channels), dtype=np.uint8)
    rows[:, 0] = 0
    rows[:, 1:] = image.reshape(height, width * channels)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    idat = zlib.compress(rows.tobytes(), _ZLIB_LEVEL)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _unfilter_serial(ftype: int, line: np.ndarray, above: np.ndarray, bpp: int) -> np.ndarray:
    """Rebuild one row with filter 3 (average) or 4 (Paeth).

    Each byte depends on the rebuilt byte `bpp` to its left, so the row is
    rebuilt one byte at a time, on Python ints, which cost far less per
    step than numpy scalars. `rec` and `up` carry `bpp` zeros in front of
    the row: the bytes left of the first pixel count as 0.
    """
    rec = bytearray(bpp + line.size)
    up = [0] * bpp + above.tolist()
    if ftype == 3:
        for i, x in enumerate(line.tolist()):
            rec[i + bpp] = (x + ((rec[i] + up[i + bpp]) >> 1)) & 0xFF
    else:
        for i, x in enumerate(line.tolist()):
            a, b, c = rec[i], up[i + bpp], up[i]
            # distances of a, b and c from the estimate p = a + b - c
            pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            rec[i + bpp] = (x + pred) & 0xFF
    return np.frombuffer(rec, dtype=np.uint8, offset=bpp)


def _unfilter(raw: np.ndarray, width: int, height: int, channels: int) -> np.ndarray:
    stride = width * channels
    if raw.size != height * (1 + stride):
        raise ValidationError("PNG pixel data has the wrong length")
    raw = raw.reshape(height, 1 + stride)
    ftypes = raw[:, 0]
    invalid = ftypes[ftypes > 4]
    if invalid.size:
        raise ValidationError(f"PNG filter type {int(invalid[0])} is not valid")
    # a row with filter 0 is stored as it stands, so every row starts final;
    # the others are reconstructed in order, each from the finished row above
    out = raw[:, 1:].copy()
    bpp = channels
    for y in np.flatnonzero(ftypes).tolist():
        ftype = int(ftypes[y])
        line = out[y].astype(np.int64)
        prev = out[y - 1].astype(np.int64) if y > 0 else np.zeros(stride, dtype=np.int64)
        if ftype == 1:
            rec = line.copy()
            for lane in range(bpp):
                rec[lane::bpp] = np.cumsum(rec[lane::bpp]) % 256
        elif ftype == 2:
            rec = (line + prev) % 256
        else:  # 3 or 4; types above 4 were rejected before the loop
            rec = _unfilter_serial(ftype, line, prev, bpp)
        out[y] = rec.astype(np.uint8)
    return out.reshape(height, width, channels)


def decode_png(data: bytes) -> np.ndarray:
    """Parse PNG bytes into an (H, W, 3) or (H, W, 4) uint8 array."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValidationError("PNG decoder expects bytes")
    data = bytes(data)
    if not data.startswith(_SIGNATURE):
        raise ValidationError("not a PNG stream (bad signature)")

    pos = len(_SIGNATURE)
    header = None
    idat_parts: list[bytes] = []
    while pos < len(data):
        if pos + 8 > len(data):
            raise ValidationError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if len(body) != length or pos + 12 + length > len(data):
            raise ValidationError("truncated PNG chunk body")
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if crc != zlib.crc32(tag + body):
            raise ValidationError(f"PNG chunk {tag!r} fails its checksum")
        pos += 12 + length
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat_parts.append(body)
        elif tag == b"IEND":
            break
        # ancillary chunks are ignored

    if header is None:
        raise ValidationError("PNG stream has no IHDR")
    width, height, depth, color_type, compression, filter_method, interlace = header
    if depth != 8 or color_type not in (2, 6):
        raise ValidationError(
            f"unsupported PNG format (depth {depth}, color type {color_type})"
        )
    if compression != 0 or filter_method != 0 or interlace != 0:
        raise ValidationError("unsupported PNG compression/filter/interlace")
    if width < 1 or height < 1:
        raise ValidationError("PNG declares an empty image")

    try:
        raw = zlib.decompress(b"".join(idat_parts))
    except zlib.error as exc:
        raise ValidationError(f"PNG pixel data fails to inflate: {exc}") from exc
    channels = 3 if color_type == 2 else 4
    return _unfilter(np.frombuffer(raw, dtype=np.uint8), width, height, channels)
