import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from proxycam.errors import ValidationError
from proxycam.pngio import decode_png, encode_png

from conftest import PNG_SIGNATURE, filtered_png, inflate_bomb_png, png_chunk, png_chunks


def idat_rows(data):
    # every encoder-written PNG has exactly one IDAT chunk
    start = data.index(b"IDAT") + 4
    (length,) = struct.unpack(">I", data[start - 8 : start - 4])
    return zlib.decompress(data[start : start + length])


@pytest.mark.parametrize("channels", [3])
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


def test_encoder_refuses_anything_but_rgb():
    with pytest.raises(ValidationError, match=r"\(H, W, 3\) uint8"):
        encode_png(np.zeros((2, 2, 4), dtype=np.uint8))


def test_filter_type_above_four_is_rejected():
    with pytest.raises(ValidationError, match="filter type 5"):
        decode_png(filtered_png(np.zeros((4, 3, 3), dtype=np.uint8), 5))


@pytest.mark.parametrize("ftype", [1, 2, 3, 4])
def test_standard_nonzero_filter_is_refused(ftype):
    # valid PNG, but outside the dialect: the encoder writes filter 0 only
    with pytest.raises(ValidationError, match=f"filter type {ftype}"):
        decode_png(filtered_png(np.full((4, 3, 3), 9, dtype=np.uint8), ftype))


def split_idat(data):
    """The same PNG with its one IDAT split across two chunks."""
    idat = zlib.compress(idat_rows(data))
    head = data[: data.index(b"IDAT") - 4]
    return head + png_chunk(b"IDAT", idat[:5]) + png_chunk(b"IDAT", idat[5:]) + png_chunk(b"IEND", b"")


def with_text_chunk(data):
    at = data.index(b"IDAT") - 4
    return data[:at] + png_chunk(b"tEXt", b"Comment\0hello") + data[at:]


def flipped_idat_crc(data):
    out = bytearray(data)
    out[data.index(b"IEND") - 5] ^= 0x01  # last byte of the IDAT chunk's CRC
    return bytes(out)


IMAGE = np.random.default_rng(3).integers(0, 256, (6, 5, 3), dtype=np.uint8)
PNG = encode_png(IMAGE)


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(filtered_png(np.dstack([IMAGE, IMAGE[:, :, :1]]), 0), id="rgba"),
        pytest.param(with_text_chunk(PNG), id="ancillary-chunk"),
        pytest.param(split_idat(PNG), id="second-idat"),
        pytest.param(PNG + b"\0", id="trailing-byte"),
        pytest.param(PNG + png_chunk(b"tEXt", b"a\0b"), id="chunk-after-iend"),
        pytest.param(flipped_idat_crc(PNG), id="flipped-crc"),
    ],
)
def test_png_outside_the_dialect_is_refused(data):
    assert np.array_equal(decode_png(PNG), IMAGE)
    with pytest.raises(ValidationError):
        decode_png(data)


def test_inflate_bomb_is_refused_in_bounded_memory():
    bomb = inflate_bomb_png()
    assert len(bomb) < 64_000
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="wrong length"):
            decode_png(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("delta", [-1, 1, -10])
def test_wrong_inflated_length_is_rejected(delta):
    raw = bytes(4 * (1 + 3 * 3))
    raw = raw[:delta] if delta < 0 else raw + b"\0" * delta
    with pytest.raises(ValidationError, match="wrong length"):
        decode_png(PNG_SIGNATURE + b"".join(png_chunks(3, 4, raw)))
