"""The only payload that ever crosses the edge-cloud link.

A representation tuple binds, under one sync key, the scrubbed background
image (as PNG bytes) and the per-subject joint points, visibility bits and
head yaw. There is deliberately no field that could carry the raw frame or
per-subject appearance, nor one the cloud can compute from the others: the
back-to-front subject order is `proxy.occlusion_order` of the poses, so it
is not carried. Version 5 of the wire format has no extension sections
either.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from ..skeleton import KeypointSet

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SyncKey:
    camera_id: int
    frame_id: int
    timestamp_us: int

    def validate(self) -> None:
        if not 0 <= self.camera_id <= U32_MAX:
            raise ValidationError("camera_id must fit in u32")
        if not 0 <= self.frame_id <= U64_MAX:
            raise ValidationError("frame_id must fit in u64")
        if not 0 <= self.timestamp_us <= U64_MAX:
            raise ValidationError("timestamp_us must fit in u64")


@dataclass
class RepresentationTuple:
    key: SyncKey
    env_png: bytes
    poses: list[tuple[int, KeypointSet]]


def validate_tuple(t: RepresentationTuple) -> None:
    """Structural invariants every tuple must satisfy before encoding."""
    t.key.validate()
    if not isinstance(t.env_png, (bytes, bytearray)):
        raise ValidationError("env_png must be bytes")

    sids = [sid for sid, _ in t.poses]
    if len(sids) > 2**16 - 1:
        raise ValidationError("pose count must fit in u16")
    if len(set(sids)) != len(sids):
        raise ValidationError("pose subject ids must be unique")
    for sid, kp in t.poses:
        if not 0 <= sid <= U32_MAX:
            raise ValidationError("subject_id must fit in u32")
        if not isinstance(kp, KeypointSet):
            raise ValidationError("poses must carry KeypointSet values")
