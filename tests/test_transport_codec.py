import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxycam.errors import ValidationError
from proxycam.pngio import encode_png
from proxycam.skeleton import KeypointSet
from proxycam.transport.codec import decode, encode
from proxycam.transport.model import RepresentationTuple, SyncKey

SMALL_PNG = encode_png(np.full((8, 8, 3), 77, dtype=np.uint8))


def make_tuple(poses=(), order=(), frame_id=0, env=SMALL_PNG):
    return RepresentationTuple(
        key=SyncKey(camera_id=0, frame_id=frame_id, timestamp_us=frame_id * 33333),
        env_png=env,
        poses=list(poses),
        order=list(order),
    )


def keypoints(seed, head=True):
    rng = np.random.default_rng(seed)
    joints = np.empty((17, 3), dtype=np.float32)
    joints[:, 0] = rng.uniform(0, 320, 17)
    joints[:, 1] = rng.uniform(0, 240, 17)
    joints[:, 2] = rng.uniform(0, 1, 17)
    yaw = float(np.float32(rng.uniform(-np.pi, np.pi))) if head else None
    return KeypointSet(joints=joints, head_yaw=yaw)


class TestRoundTrip:
    def test_empty_tuple(self):
        t = make_tuple()
        assert decode(encode(t)) == t

    def test_tuple_with_poses_and_order(self):
        t = make_tuple(
            poses=[(3, keypoints(1)), (9, keypoints(2, head=False))],
            order=[9, 3],
            frame_id=41,
        )
        assert decode(encode(t)) == t

    def test_canonical_encoding(self):
        t = make_tuple(poses=[(1, keypoints(5))], order=[1], frame_id=7)
        assert encode(t) == encode(decode(encode(t)))


subject_ids = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def tuples(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    sids = draw(
        st.lists(subject_ids, min_size=n, max_size=n, unique=True)
    )
    poses = [
        (sid, keypoints(draw(st.integers(0, 10_000)), head=draw(st.booleans())))
        for sid in sids
    ]
    order = draw(st.permutations(sids))
    return make_tuple(
        poses=poses,
        order=list(order),
        frame_id=draw(st.integers(0, 2**44)),  # timestamp = fid * 33333 must fit u64
    )


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(tuples())
    def test_decode_inverts_encode(self, t):
        assert decode(encode(t)) == t

    @settings(max_examples=150, deadline=None)
    @given(tuples())
    def test_equal_tuples_encode_identically(self, t):
        assert encode(t) == encode(t)


def with_crc(body: bytes) -> bytes:
    """`body` closed by its own valid checksum."""
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


class TestRejection:
    def test_bad_magic(self):
        packet = bytearray(encode(make_tuple()))
        packet[:4] = b"NOPE"
        with pytest.raises(ValidationError, match="bad magic"):
            decode(bytes(packet))

    def test_unknown_version(self):
        packet = bytearray(encode(make_tuple()))
        packet[4] = 9
        with pytest.raises(ValidationError, match="unsupported packet version 9"):
            decode(bytes(packet))

    def test_crc_mismatch(self):
        packet = bytearray(encode(make_tuple()))
        packet[-1] ^= 0x01
        with pytest.raises(ValidationError, match="checksum mismatch"):
            decode(bytes(packet))

    def test_truncation(self):
        # cut inside the env section, with the checksum made valid again,
        # so that only the section lengths can tell
        packet = encode(make_tuple())
        with pytest.raises(ValidationError, match="packet truncated"):
            decode(with_crc(packet[: len(packet) // 2]))
        with pytest.raises(ValidationError, match="packet too short"):
            decode(packet[:20])

    def test_trailing_bytes_rejected(self):
        # version 2 has no extension sections: extra bytes cannot ride along
        packet = encode(make_tuple())
        with pytest.raises(ValidationError, match="unexpected trailing bytes"):
            decode(with_crc(packet[:-4] + b"extra"))

    def test_encode_refuses_order_mismatch(self):
        t = make_tuple(poses=[(1, keypoints(0))], order=[2])
        with pytest.raises(ValidationError):
            encode(t)

    def test_decode_rejects_pose_order_mismatch_as_consistency(self):
        # corrupt a valid packet's order section id and fix up the CRC
        t = make_tuple(poses=[(1, keypoints(0))], order=[1])
        packet = bytearray(encode(t))
        body = packet[:-4]
        idx = bytes(body).rfind(struct.pack("<I", 1))  # order entry
        body[idx : idx + 4] = struct.pack("<I", 2)
        with pytest.raises(ValidationError, match="permutation"):
            decode(with_crc(body))


def version1_layout(packet: bytes, version: int = 1) -> bytes:
    """A version-2 packet rewritten in the version-1 layout: a 64-dim
    section (u16 dim, then 64 x f32) before the checksum, CRC recomputed."""
    body = bytearray(packet[:-4])
    body[4] = version
    body += struct.pack("<H", 64) + np.linspace(0, 1, 64, dtype="<f4").tobytes()
    return with_crc(body)


def with_flags(packet: bytes, flags: int) -> bytes:
    """A packet with its reserved flags byte set, CRC recomputed."""
    body = bytearray(packet[:-4])
    body[5] = flags
    return with_crc(body)


class TestVersion2:
    def test_packet_length(self):
        for n in range(3):
            sids = list(range(10, 10 + n))
            t = make_tuple(poses=[(sid, keypoints(sid)) for sid in sids], order=sids)
            assert len(encode(t)) == 26 + 4 + len(SMALL_PNG) + 2 + n * 213 + 2 + 4 * n + 4

    def test_version1_packet_is_refused(self):
        packet = encode(make_tuple(poses=[(1, keypoints(0))], order=[1]))
        with pytest.raises(ValidationError, match="unsupported packet version 1"):
            decode(version1_layout(packet))

    def test_version1_section_under_version2_is_trailing(self):
        packet = encode(make_tuple(poses=[(1, keypoints(0))], order=[1]))
        with pytest.raises(ValidationError, match="trailing"):
            decode(version1_layout(packet, version=2))

    def test_cloud_counts_version1_packet_as_malformed(self, tmp_path):
        from proxycam.config import RunConfig
        from proxycam.runner import CloudRunner

        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        cloud.feed(version1_layout(encode(make_tuple(frame_id=0))))
        cloud.feed(encode(make_tuple(frame_id=0)))
        cloud.finish()
        assert cloud.malformed == 1
        assert sorted(cloud.reports) == [(0, 0)]

    @pytest.mark.parametrize("flags", [0x01, 0x04, 0x80])
    def test_nonzero_flags_byte_is_refused(self, flags):
        packet = encode(make_tuple(poses=[(1, keypoints(0))], order=[1]))
        assert packet[5] == 0
        with pytest.raises(ValidationError, match="flags"):
            decode(with_flags(packet, flags))

    def test_cloud_counts_nonzero_flags_packet_as_malformed(self, tmp_path):
        from proxycam.config import RunConfig
        from proxycam.runner import CloudRunner

        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        cloud.feed(encode(make_tuple(frame_id=0)))
        cloud.feed(with_flags(encode(make_tuple(frame_id=1)), 0x80))
        cloud.feed(encode(make_tuple(frame_id=2)))
        cloud.finish()
        assert cloud.malformed == 1
        assert sorted(cloud.reports) == [(0, 0), (0, 2)]


class TestSingleByteFuzz:
    def test_every_single_byte_flip_is_detected(self):
        # exhaustive over one reference packet: no flip may decode silently
        t = make_tuple(poses=[(2, keypoints(11))], order=[2], frame_id=3)
        packet = encode(t)
        undetected = []
        for i in range(len(packet)):
            mutated = bytearray(packet)
            mutated[i] ^= 0xFF
            try:
                decoded = decode(bytes(mutated))
            except ValidationError:
                continue
            if decoded != t:
                undetected.append(i)
            else:  # flip produced an identical tuple: impossible for xor 0xFF
                undetected.append(i)
        assert undetected == []
