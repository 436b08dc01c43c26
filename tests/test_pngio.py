import struct
import zlib

import numpy as np
import pytest

from proxycam.errors import ValidationError
from proxycam.pngio import decode_png, encode_png

SIGNATURE = b"\x89PNG\r\n\x1a\n"


def chunk(tag, body):
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))


def paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def filter_rows(image, ftypes):
    """Reference PNG filter encoder: one filter byte per row, then the row
    with each byte replaced by its difference from the filter's predictor,
    taken on the unfiltered bytes to its left, above and above-left."""
    height, width, channels = image.shape
    rows = image.reshape(height, width * channels).astype(int).tolist()
    out = bytearray()
    for y, ftype in enumerate(ftypes):
        row = rows[y]
        above = rows[y - 1] if y > 0 else [0] * len(row)
        out.append(ftype)
        for i, x in enumerate(row):
            a = row[i - channels] if i >= channels else 0
            b = above[i]
            c = above[i - channels] if i >= channels else 0
            pred = (0, a, b, (a + b) // 2, paeth(a, b, c))[ftype]
            out.append((x - pred) % 256)
    return bytes(out)


def png_from_rows(width, height, channels, raw):
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2 if channels == 3 else 6, 0, 0, 0)
    return (
        SIGNATURE
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def idat_rows(data):
    # every encoder-written PNG here has exactly one IDAT chunk
    start = data.index(b"IDAT") + 4
    (length,) = struct.unpack(">I", data[start - 8 : start - 4])
    return zlib.decompress(data[start : start + length])


@pytest.mark.parametrize("channels", [3, 4])
@pytest.mark.parametrize("height,width", [(1, 1), (1, 9), (7, 1), (5, 6), (12, 11)])
def test_every_filter_type_decodes_to_the_source_pixels(channels, height, width):
    rng = np.random.default_rng(height * 100 + width * 10 + channels)
    # each row filter alone, so a 1-row image still meets every type, then mixes
    plans = [[f] * height for f in range(5)] + [rng.integers(0, 5, height).tolist() for _ in range(2)]
    for kind in ("noise", "smooth", "few"):
        image = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
        if kind == "smooth":
            # the predictors, not the raw bytes, carry the data
            image = np.cumsum(image // 16, axis=1, dtype=np.uint8)
        elif kind == "few":
            # few distinct values give ties between the Paeth candidates
            image //= 64
        for ftypes in plans:
            data = png_from_rows(width, height, channels, filter_rows(image, ftypes))
            out = decode_png(data)
            assert out.dtype == np.uint8
            assert out.shape == image.shape
            assert np.array_equal(out, image), (kind, ftypes)


@pytest.mark.parametrize("channels", [3, 4])
@pytest.mark.parametrize("height,width", [(1, 1), (1, 13), (9, 1), (24, 32)])
def test_encode_round_trip_writes_filter_zero_rows(channels, height, width):
    rng = np.random.default_rng(height * width + channels)
    image = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
    data = encode_png(image)
    assert data == encode_png(image.copy())
    rows = np.frombuffer(idat_rows(data), dtype=np.uint8).reshape(height, -1)
    assert not rows[:, 0].any()
    out = decode_png(data)
    assert np.array_equal(out, image)
    assert out.flags.writeable and out.flags.c_contiguous


def test_filter_type_above_four_is_rejected():
    image = np.zeros((4, 3, 3), dtype=np.uint8)
    raw = bytearray(filter_rows(image, [0, 2, 0, 0]))
    raw[2 * (1 + 9)] = 5  # third row's filter byte
    with pytest.raises(ValidationError, match="filter type 5"):
        decode_png(png_from_rows(3, 4, 3, bytes(raw)))


@pytest.mark.parametrize("delta", [-1, 1, -10])
def test_wrong_inflated_length_is_rejected(delta):
    image = np.zeros((4, 3, 3), dtype=np.uint8)
    raw = filter_rows(image, [0] * 4)
    raw = raw[:delta] if delta < 0 else raw + b"\0" * delta
    with pytest.raises(ValidationError, match="wrong length"):
        decode_png(png_from_rows(3, 4, 3, raw))
