"""Bit-exact wire codec for representation tuples.

Packet layout, all integers little-endian:

    magic           4 bytes  'PCV2'
    version         u8       = 3
    flags           u8       reserved, zero; decode refuses others
    camera_id       u32
    frame_id        u64
    timestamp_us    u64
    env section     u32 length, then that many bytes of a PNG in
                    `encode_png`'s dialect (the codec does not look inside)
    pose section    u16 count, then per subject:
                      subject_id u32
                      head_present u8
                      head_yaw f32 (zero when absent)
                      17 x (u f32, v f32, confidence f32)
    crc32           u32, IEEE, over every preceding byte

Encoding is canonical: equal tuples produce byte-identical packets. The
decoder checks the checksum before touching any section, so any corrupted
packet fails loudly instead of parsing into garbage. Nothing is carried
that the cloud can compute from the other sections: the back-to-front
order is `proxy.occlusion_order` of the poses. The magic and the layout
up to the pose count do not change with the version, because
`perfbench/checks.py` reads packets by them.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import ValidationError
from ..skeleton import JOINT_COUNT, KeypointSet
from .model import RepresentationTuple, SyncKey, validate_tuple

MAGIC = b"PCV2"
VERSION = 3

_HEADER = struct.Struct("<4sBBIQQ")
_POSE_HEAD = struct.Struct("<IBf")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def encode(t: RepresentationTuple) -> bytes:
    """Serialize a tuple; refuses tuples that violate their invariants."""
    validate_tuple(t)
    parts = [
        _HEADER.pack(
            MAGIC, VERSION, 0, t.key.camera_id, t.key.frame_id, t.key.timestamp_us
        ),
        _U32.pack(len(t.env_png)),
        bytes(t.env_png),
        _U16.pack(len(t.poses)),
    ]
    for sid, kp in t.poses:
        head_present = kp.head_yaw is not None
        parts.append(
            _POSE_HEAD.pack(sid, 1 if head_present else 0, kp.head_yaw or 0.0)
        )
        parts.append(kp.joints.astype("<f4").tobytes())
    body = b"".join(parts)
    return body + _U32.pack(zlib.crc32(body))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValidationError(
                f"packet truncated: wanted {n} bytes at offset {self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def done(self) -> bool:
        return self.pos == len(self.data)


def decode(packet: bytes) -> RepresentationTuple:
    """Parse a packet back into a tuple, validating everything on the way."""
    if len(packet) < _HEADER.size + 4:
        raise ValidationError(f"packet too short ({len(packet)} bytes)")
    if packet[:4] != MAGIC:
        raise ValidationError(f"bad magic {packet[:4]!r}")
    version = packet[4]
    if version != VERSION:
        raise ValidationError(f"unsupported packet version {version}")

    (stored_crc,) = _U32.unpack(packet[-4:])
    actual_crc = zlib.crc32(packet[:-4])
    if stored_crc != actual_crc:
        raise ValidationError(
            f"checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )

    reader = _Reader(packet[:-4])
    _, _, flags, camera_id, frame_id, timestamp_us = _HEADER.unpack(
        reader.take(_HEADER.size)
    )
    if flags != 0:
        raise ValidationError(f"flags byte {flags:#04x} must be zero in version {VERSION}")
    env_len = reader.u32()
    env_png = reader.take(env_len)

    pose_count = reader.u16()
    poses: list[tuple[int, KeypointSet]] = []
    for _ in range(pose_count):
        sid, head_present, head_yaw = _POSE_HEAD.unpack(reader.take(_POSE_HEAD.size))
        joints = np.frombuffer(
            reader.take(JOINT_COUNT * 3 * 4), dtype="<f4"
        ).reshape(JOINT_COUNT, 3)
        poses.append(
            (
                sid,
                KeypointSet(
                    joints=joints.copy(),
                    head_yaw=float(head_yaw) if head_present else None,
                ),
            )
        )

    if not reader.done():
        raise ValidationError(
            f"{len(reader.data) - reader.pos} unexpected trailing bytes"
        )

    t = RepresentationTuple(
        key=SyncKey(camera_id=camera_id, frame_id=frame_id, timestamp_us=timestamp_us),
        env_png=env_png,
        poses=poses,
    )
    validate_tuple(t)
    return t
