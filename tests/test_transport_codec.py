import dataclasses
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxycam.errors import ValidationError
from proxycam.pngio import WIRE_LEVEL, encode_png
from proxycam.skeleton import COORD_LIMIT, KeypointSet
from proxycam.transport.codec import decode, encode
from proxycam.transport.model import RepresentationTuple, SyncKey

SMALL_PNG = encode_png(np.full((8, 8, 3), 77, dtype=np.uint8), WIRE_LEVEL)


def make_tuple(poses=(), frame_id=0, env=SMALL_PNG):
    return RepresentationTuple(
        key=SyncKey(camera_id=0, frame_id=frame_id, timestamp_us=frame_id * 33333),
        env_png=env,
        poses=list(poses),
    )


def keypoints(seed, head=True, visible_bits=None):
    """Random points and yaw from `seed`; joint j is visible when bit j of
    `visible_bits` is set, or, without it, with probability 0.8."""
    rng = np.random.default_rng(seed)
    points = np.empty((17, 2), dtype=np.float32)
    points[:, 0] = rng.uniform(0, 320, 17)
    points[:, 1] = rng.uniform(0, 240, 17)
    if visible_bits is None:
        visible = rng.uniform(0, 1, 17) < 0.8
    else:
        visible = (visible_bits >> np.arange(17)) & 1 == 1
    yaw = float(np.float32(rng.uniform(-np.pi, np.pi))) if head else None
    return KeypointSet(points=points, visible=visible, head_yaw=yaw)


class TestRoundTrip:
    def test_empty_tuple(self):
        t = make_tuple()
        assert decode(encode(t)) == t

    def test_tuple_with_poses_and_order(self):
        t = make_tuple(
            poses=[(3, keypoints(1)), (9, keypoints(2, head=False))],
            frame_id=41,
        )
        assert decode(encode(t)) == t

    def test_canonical_encoding(self):
        t = make_tuple(poses=[(1, keypoints(5))], frame_id=7)
        assert encode(t) == encode(decode(encode(t)))


subject_ids = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def tuples(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    sids = draw(
        st.lists(subject_ids, min_size=n, max_size=n, unique=True)
    )
    poses = [
        (
            sid,
            keypoints(
                draw(st.integers(0, 10_000)),
                head=draw(st.booleans()),
                visible_bits=draw(st.integers(0, 2**17 - 1)),
            ),
        )
        for sid in sids
    ]
    return make_tuple(
        poses=poses,
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
        # version 4 has no extension sections: extra bytes cannot ride along
        packet = encode(make_tuple())
        with pytest.raises(ValidationError, match="unexpected trailing bytes"):
            decode(with_crc(packet[:-4] + b"extra"))


def version1_layout(packet: bytes) -> bytes:
    """A packet rewritten as version 1: its version byte set to 1 and a
    64-dim embedding section (u16 dim, then 64 x f32) before the checksum,
    CRC recomputed."""
    body = bytearray(packet[:-4])
    body[4] = 1
    body += struct.pack("<H", 64) + np.linspace(0, 1, 64, dtype="<f4").tobytes()
    return with_crc(body)


def version2_layout(packet: bytes, order: list[int], version: int = 2) -> bytes:
    """A packet with version 2's order section (u16 count, then u32
    subject ids) put before the checksum and its version byte set to
    `version`, CRC recomputed."""
    body = bytearray(packet[:-4])
    body[4] = version
    body += struct.pack("<H", len(order))
    body += b"".join(struct.pack("<I", sid) for sid in order)
    return with_crc(body)


def with_flags(packet: bytes, flags: int) -> bytes:
    """A packet with its reserved flags byte set, CRC recomputed."""
    body = bytearray(packet[:-4])
    body[5] = flags
    return with_crc(body)


class TestVersion2:
    """What version 2 brought and later versions keep: a zero flags byte,
    and no version-1 packet with its embedding section."""

    def test_version1_packet_is_refused(self):
        packet = encode(make_tuple(poses=[(1, keypoints(0))]))
        with pytest.raises(ValidationError, match="unsupported packet version 1"):
            decode(version1_layout(packet))

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
        packet = encode(make_tuple(poses=[(1, keypoints(0))]))
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


class TestVersion3:
    """Version 3 dropped version 2's order section, and version 4 keeps it out."""

    def test_version2_packet_is_refused(self):
        packet = encode(make_tuple(poses=[(1, keypoints(0))]))
        with pytest.raises(ValidationError, match="unsupported packet version 2"):
            decode(version2_layout(packet, [1]))

    def test_version2_order_section_is_trailing(self):
        packet = encode(make_tuple(poses=[(1, keypoints(0))]))
        with pytest.raises(ValidationError, match="trailing"):
            decode(version2_layout(packet, [1], version=4))

    def test_cloud_counts_version2_packet_as_malformed(self, tmp_path):
        from proxycam.config import RunConfig
        from proxycam.runner import CloudRunner

        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        cloud.feed(version2_layout(encode(make_tuple(frame_id=0)), []))
        cloud.feed(encode(make_tuple(frame_id=1)))
        cloud.finish()
        assert cloud.malformed == 1
        assert sorted(cloud.reports) == [(0, 1)]


def version3_layout(t: RepresentationTuple) -> bytes:
    """`t` encoded in the version-3 layout: per subject a head_present byte
    and a (u, v, confidence) float triple per joint, confidence 1.0 for a
    visible joint and 0.0 for a hidden one."""
    body = bytearray(encode(dataclasses.replace(t, poses=[]))[:-6])
    body[4] = 3
    body += struct.pack("<H", len(t.poses))
    for sid, kp in t.poses:
        body += struct.pack("<IBf", sid, kp.head_yaw is not None, kp.head_yaw or 0.0)
        joints = np.column_stack([kp.points, kp.visible.astype(np.float32)])
        body += joints.astype("<f4").tobytes()
    return with_crc(body)


def with_pose_flags(packet: bytes, flags: int) -> bytes:
    """A one-subject packet with its subject's flags word replaced, CRC
    recomputed."""
    body = bytearray(packet[:-4])
    at = len(body) - 17 * 8 - 8  # the flags word follows subject_id
    body[at : at + 4] = struct.pack("<I", flags)
    return with_crc(body)


class TestVersion4:
    """Version 4 sends a joint's visibility as one bit: per subject a u32
    flags word (bit j for joint j, bit 17 for a head yaw), the head yaw,
    and 17 (u, v) float pairs."""

    def test_packet_length(self):
        for n in range(3):
            sids = list(range(10, 10 + n))
            t = make_tuple(poses=[(sid, keypoints(sid)) for sid in sids])
            assert len(encode(t)) == 26 + 4 + len(SMALL_PNG) + 2 + n * 148 + 4

    def test_flags_word_layout(self):
        kp = keypoints(3, visible_bits=(1 << 0) | (1 << 16))
        packet = encode(make_tuple(poses=[(7, kp)]))
        pose = packet[-4 - 148 : -4]
        assert struct.unpack("<IIf", pose[:12]) == (7, 0x30001, kp.head_yaw)
        assert pose[12:] == kp.points.astype("<f4").tobytes()

    def test_version3_packet_is_refused(self):
        t = make_tuple(poses=[(1, keypoints(0))])
        with pytest.raises(ValidationError, match="unsupported packet version 3"):
            decode(version3_layout(t))

    @pytest.mark.parametrize("bit", [18, 31])
    def test_reserved_flag_bit_is_refused(self, bit):
        packet = encode(make_tuple(poses=[(1, keypoints(0))]))
        assert decode(with_pose_flags(packet, 0x3FFFF)).poses[0][1].visible.all()
        with pytest.raises(ValidationError, match="reserved bit"):
            decode(with_pose_flags(packet, 0x3FFFF | (1 << bit)))

    def test_absent_and_zero_yaw_stay_distinct(self):
        kp = keypoints(0, head=False)
        t = make_tuple(poses=[(1, kp), (2, KeypointSet(kp.points, kp.visible, 0.0))])
        decoded = decode(encode(t))
        assert decoded == t
        assert [kp.head_yaw for _, kp in decoded.poses] == [None, 0.0]

    def test_negative_zero_yaw_keeps_its_sign(self):
        # -0.0 == 0.0, so a tuple comparison cannot tell them apart; the
        # cloud's reuse memo keys a pose by its bits, which must match the edge's
        from proxycam.proxy import pose_key

        kp = keypoints(0, head=False)
        poses = [(sid, KeypointSet(kp.points, kp.visible, yaw)) for sid, yaw in ((1, -0.0), (2, 0.0))]
        decoded = decode(encode(make_tuple(poses=poses))).poses
        assert [pose_key(kp) for _, kp in decoded] == [pose_key(kp) for _, kp in poses]
        assert [np.copysign(1.0, kp.head_yaw) for _, kp in decoded] == [-1.0, 1.0]

    def test_cloud_counts_version3_packet_as_malformed(self, tmp_path):
        from proxycam.config import RunConfig
        from proxycam.runner import CloudRunner

        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        cloud.feed(version3_layout(make_tuple(poses=[(1, keypoints(0))], frame_id=0)))
        cloud.feed(encode(make_tuple(frame_id=1)))
        cloud.finish()
        assert cloud.malformed == 1
        assert sorted(cloud.reports) == [(0, 1)]


yaws = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@st.composite
def wide_tuples(draw):
    """Up to 20 subjects, any set of visible joints, and coordinates out to
    the +-2**24 limit, the limit itself included."""
    n = draw(st.integers(0, 20))
    sids = draw(st.lists(subject_ids, min_size=n, max_size=n, unique=True))
    poses = []
    for sid in sids:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1.0, 320.0, float(COORD_LIMIT)]))
        points = rng.uniform(-scale, scale, (17, 2)).astype(np.float32)
        if draw(st.booleans()):
            points[0] = (COORD_LIMIT, -COORD_LIMIT)
        visible = (draw(st.integers(0, 2**17 - 1)) >> np.arange(17)) & 1 == 1
        poses.append((sid, KeypointSet(points, visible, draw(yaws))))
    return make_tuple(poses=poses, frame_id=draw(st.integers(0, 2**44)))


def pose_section_one_by_one(t: RepresentationTuple) -> bytes:
    """The records of `t`'s poses packed one subject at a time, as the
    layout states them."""
    out = b""
    for sid, kp in t.poses:
        flags = sum(1 << j for j in range(17) if kp.visible[j])
        if kp.head_yaw is not None:
            flags |= 1 << 17
        out += struct.pack("<IIf", sid, flags, 0.0 if kp.head_yaw is None else kp.head_yaw)
        out += kp.points.astype("<f4").tobytes()
    return out


def three_subjects() -> RepresentationTuple:
    return make_tuple(poses=[(sid, keypoints(sid)) for sid in (4, 5, 6)])


class TestPoseRecords:
    """The pose section is one array of fixed 148-byte records."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(wide_tuples())
    def test_round_trip_both_ways(self, t):
        packet = encode(t)
        records = pose_section_one_by_one(t)
        assert packet[len(packet) - 4 - len(records) : -4] == records
        decoded = decode(packet)
        assert decoded == t
        assert encode(decoded) == packet
        signs = [
            [math.copysign(1.0, kp.head_yaw) for _, kp in u.poses if kp.head_yaw is not None]
            for u in (t, decoded)
        ]
        assert signs[0] == signs[1]

    def test_every_cut_and_one_extra_byte_are_refused(self):
        body = encode(three_subjects())[:-4]
        for cut in range(len(body)):
            with pytest.raises(ValidationError, match="packet truncated|packet too short"):
                decode(with_crc(body[:cut]))
        with pytest.raises(ValidationError, match="1 unexpected trailing bytes"):
            decode(with_crc(body + b"\0"))

    @pytest.mark.parametrize("k", range(3))
    def test_reserved_bit_on_any_subject_is_refused(self, k):
        body = bytearray(encode(three_subjects())[:-4])
        at = len(body) - (3 - k) * 148 + 4  # the flags word follows subject_id
        (flags,) = struct.unpack_from("<I", body, at)
        struct.pack_into("<I", body, at, flags | 1 << 18)
        with pytest.raises(ValidationError, match="reserved bit"):
            decode(with_crc(body))

    def test_decoded_points_are_writable_and_apart_from_the_packet(self):
        t = three_subjects()
        packet = encode(t)
        wire = np.frombuffer(packet, dtype=np.uint8)
        poses = [kp for _, kp in decode(packet).poses]
        for kp in poses:
            assert kp.points.flags.writeable
            assert not np.shares_memory(kp.points, wire)
        poses[0].points[:] = -1.0
        assert decode(packet).poses[0][1] == t.poses[0][1]
        assert poses[1] == t.poses[1][1] and poses[2] == t.poses[2][1]


class TestSingleByteFuzz:
    def test_every_single_byte_flip_is_detected(self):
        # exhaustive over one reference packet: no flip may decode silently
        t = make_tuple(poses=[(2, keypoints(11))], frame_id=3)
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


# 14 bytes: a length prefix that claims 100,000,000 bytes, then 10 of them
FALSE_PREFIX = struct.pack("<I", 100_000_000) + b"x" * 10


def packets_before_the_cut(packets) -> list[bytes]:
    """The packets yielded before the stream's truncation error, which
    must come."""
    got = []
    with pytest.raises(ValidationError, match="packet stream ends inside a record"):
        for packet in packets:
            got.append(packet)
    return got


def peak_bytes(fn) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestSocketFraming:
    def test_false_length_prefix_costs_only_the_bytes_that_arrive(self):
        import socket

        from proxycam.transport.replay import iter_packets

        sender, receiver = socket.socketpair()
        try:
            sender.sendall(FALSE_PREFIX)
            sender.close()
            peak = peak_bytes(lambda: packets_before_the_cut(iter_packets(receiver.recv)))
        finally:
            receiver.close()
        assert peak < 1 << 20


class TestPacketFraming:
    """Files and sockets share one framing, so one byte stream gets one
    verdict from either."""

    def test_replay_file_with_a_false_length_prefix_costs_only_its_bytes(self, tmp_path):
        from proxycam.transport.replay import read_packets

        path = tmp_path / "false_prefix.bin"
        path.write_bytes(FALSE_PREFIX)
        peak = peak_bytes(lambda: packets_before_the_cut(read_packets(path)))
        assert peak < 1 << 20

    def test_stream_cut_inside_a_record_header_is_refused_by_socket_and_file(self, tmp_path):
        import socket

        from proxycam.transport.replay import PacketWriter, iter_packets, read_packets

        records = []
        writer = PacketWriter(records.append)
        writer.send(b"first")
        writer.send(b"second")
        stream = b"".join(records)[: 4 + len(b"first") + 2]  # 2 bytes into the second header

        sender, receiver = socket.socketpair()
        try:
            sender.sendall(stream)
            sender.close()
            assert packets_before_the_cut(iter_packets(receiver.recv)) == [b"first"]
        finally:
            receiver.close()

        path = tmp_path / "cut.bin"
        path.write_bytes(stream)
        assert packets_before_the_cut(read_packets(path)) == [b"first"]
