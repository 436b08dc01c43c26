"""Output checks made apart from the program.

Packets and PNGs are parsed here from the published wire layout instead of
through the program's codec, and the scrubbing rule is checked against the
simulator's ground truth: its masks and its clean background.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np

from proxycam.edge.background import NEVER_SEEN_FILL
from proxycam.proxy import FILL_COLOR, OUTLINE_COLOR

_HEADER = struct.Struct("<4sBBIQQ")
_POSE_BYTES = 4 + 1 + 4 + 17 * 3 * 4


class CheckError(Exception):
    """An output does not have the published form."""


def parse_packet(packet: bytes) -> dict:
    """Camera, frame, env PNG and section sizes of one wire packet."""
    if len(packet) < _HEADER.size + 4 or packet[:4] != b"PCV2":
        raise CheckError("not a PCV2 packet")
    if zlib.crc32(packet[:-4]) != struct.unpack("<I", packet[-4:])[0]:
        raise CheckError("packet checksum mismatch")
    try:
        _, _, _, camera, frame, _ = _HEADER.unpack_from(packet, 0)
        pos = _HEADER.size
        (env_len,) = struct.unpack_from("<I", packet, pos)
        env = packet[pos + 4 : pos + 4 + env_len]
        pos += 4 + env_len
        (poses,) = struct.unpack_from("<H", packet, pos)
    except struct.error as exc:
        raise CheckError(f"packet truncated: {exc}") from exc
    return {
        "camera": camera,
        "frame": frame,
        "env_png": env,
        "env_bytes": env_len,
        "pose_bytes": 2 + poses * _POSE_BYTES,
        "subjects": poses,
    }


def decode_png_rgb(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB PNG whose rows all use filter 0, as the edge writes them."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise CheckError("not a PNG")
    pos, header, idat = 8, None, []
    try:
        while pos < len(data):
            (length,) = struct.unpack_from(">I", data, pos)
            tag = data[pos + 4 : pos + 8]
            body = data[pos + 8 : pos + 8 + length]
            pos += 12 + length
            if tag == b"IHDR":
                header = struct.unpack(">IIBBBBB", body)
            elif tag == b"IDAT":
                idat.append(body)
            elif tag == b"IEND":
                break
        if header is None or header[2:] != (8, 2, 0, 0, 0):
            raise CheckError(f"unexpected PNG header {header}")
        width, height = header[0], header[1]
        rows = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
        rows = rows.reshape(height, 1 + 3 * width)
    except (struct.error, zlib.error, ValueError) as exc:
        raise CheckError(f"malformed PNG: {exc}") from exc
    if rows[:, 0].any():
        raise CheckError("PNG row filter is not 0")
    return rows[:, 1:].reshape(height, width, 3)


def joint_mask(gt) -> np.ndarray:
    mask = np.zeros(gt.background.shape[:2], dtype=bool)
    for actor in gt.actors:
        mask |= actor.mask
    return mask


class ErasureCheck:
    """The scrubbing rule for one camera stream, fed frame by frame in order.

    Outside the subject mask the env image equals the raw frame. Inside it,
    a pixel seen unmasked in an earlier frame shows the clean background
    and a pixel never seen unmasked shows the never-seen fill.
    """

    def __init__(self, shape: tuple[int, int]):
        self.seen = np.zeros(shape, dtype=bool)

    def frame_ok(self, env: np.ndarray, raw: np.ndarray, gt) -> bool:
        mask = joint_mask(gt)
        expected = raw.copy()
        expected[mask & self.seen] = gt.background[mask & self.seen]
        expected[mask & ~self.seen] = NEVER_SEEN_FILL
        self.seen |= ~mask
        return env.shape == expected.shape and np.array_equal(env, expected)

    def skip(self, gt) -> None:
        """Account for a frame whose env image is missing."""
        self.seen |= ~joint_mask(gt)


def reconstruction_ok(recon: np.ndarray, env: np.ndarray, composite_digest: str) -> bool:
    """Every pixel is the env pixel or a proxy colour, and the bytes equal the edge composite."""
    if recon.shape != env.shape:
        return False
    painted = recon[np.any(recon != env, axis=2)]
    proxy_colour = np.all(painted == FILL_COLOR, axis=1) | np.all(painted == OUTLINE_COLOR, axis=1)
    return bool(proxy_colour.all()) and digest(recon) == composite_digest


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
