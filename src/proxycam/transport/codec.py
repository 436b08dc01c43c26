"""Bit-exact wire codec for representation tuples.

Packet layout, all integers little-endian:

    magic           4 bytes  'PCV2'
    version         u8       = 4
    flags           u8       reserved, zero; decode refuses others
    camera_id       u32
    frame_id        u64
    timestamp_us    u64
    env section     u32 length, then that many bytes of a PNG in
                    `encode_png`'s dialect (the codec does not look inside)
    pose section    u16 count, then per subject one `_POSE` record:
                      subject_id u32
                      flags u32: bit j (j < 17) set when joint j is
                        visible, bit 17 set when a head yaw is present;
                        decode refuses any higher bit
                      head_yaw f32 (zero when absent)
                      17 x (u f32, v f32)
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
VERSION = 4

_HEADER = struct.Struct("<4sBBIQQI")  # up to the env section's bytes
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
# a subject's record in the pose section: 148 bytes, no padding
_POSE = np.dtype(
    [("sid", "<u4"), ("flags", "<u4"), ("yaw", "<f4"), ("points", "<f4", (JOINT_COUNT, 2))]
)
_JOINT_BITS = (1 << np.arange(JOINT_COUNT)).astype(np.uint32)
_HEAD_BIT = 1 << JOINT_COUNT


def encode(t: RepresentationTuple) -> bytes:
    """Serialize a tuple; refuses tuples that violate their invariants."""
    validate_tuple(t)
    poses = np.array(
        [
            # not `head_yaw or 0.0`, which would send a yaw of -0.0 as +0.0
            (sid, 0, 0.0, kp.points) if kp.head_yaw is None
            else (sid, _HEAD_BIT, kp.head_yaw, kp.points)
            for sid, kp in t.poses
        ],
        dtype=_POSE,
    )
    visible = np.array([kp.visible for _, kp in t.poses], dtype=bool)
    poses["flags"] |= visible.reshape(-1, JOINT_COUNT) @ _JOINT_BITS
    key = t.key
    head = _HEADER.pack(
        MAGIC, VERSION, 0, key.camera_id, key.frame_id, key.timestamp_us, len(t.env_png)
    )
    body = b"".join([head, bytes(t.env_png), _U16.pack(len(poses)), poses.tobytes()])
    return body + _U32.pack(zlib.crc32(body))


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

    _, _, flags, camera_id, frame_id, timestamp_us, env_len = _HEADER.unpack_from(packet)
    if flags != 0:
        raise ValidationError(f"flags byte {flags:#04x} must be zero in version {VERSION}")
    body = len(packet) - 4
    count_at = _HEADER.size + env_len
    if count_at + _U16.size > body:
        raise ValidationError(f"packet truncated: the pose count lies past the {body}-byte body")
    (count,) = _U16.unpack_from(packet, count_at)
    end = count_at + _U16.size + count * _POSE.itemsize
    if end > body:
        raise ValidationError(f"packet truncated: {count} poses end at byte {end} of {body}")
    if end < body:
        raise ValidationError(f"{body - end} unexpected trailing bytes")

    poses = np.frombuffer(packet, _POSE, count, count_at + _U16.size)
    pose_flags = poses["flags"]
    reserved = pose_flags[pose_flags >> (JOINT_COUNT + 1) != 0]
    if reserved.size:
        raise ValidationError(f"pose flags {int(reserved[0]):#010x} set a reserved bit")
    visible = (pose_flags[:, None] & _JOINT_BITS) != 0
    points = poses["points"].copy()  # writable, and apart from the packet
    t = RepresentationTuple(
        key=SyncKey(camera_id=camera_id, frame_id=frame_id, timestamp_us=timestamp_us),
        env_png=packet[_HEADER.size : count_at],
        poses=[
            (sid, KeypointSet(p, v, yaw if f & _HEAD_BIT else None))
            for sid, f, yaw, p, v in zip(
                poses["sid"].tolist(), pose_flags.tolist(), poses["yaw"].tolist(), points, visible
            )
        ],
    )
    validate_tuple(t)
    return t
