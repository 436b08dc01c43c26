import numpy as np
import pytest

from proxycam.errors import GateViolationError, ValidationError
from proxycam.pngio import encode_png
from proxycam.transport.codec import encode
from proxycam.transport.gate import privacy_gate
from proxycam.transport.model import RepresentationTuple, SyncKey
from proxycam.transport.reorder import (
    DuplicateEvent,
    GapEvent,
    ReorderBuffer,
)

PNG_16x12 = encode_png(np.full((12, 16, 3), 50, dtype=np.uint8))


def tup(fid, camera_id=0, env=PNG_16x12, conf=0.5):
    joints = np.zeros((17, 3), dtype=np.float32)
    joints[:, 2] = conf
    from proxycam.skeleton import KeypointSet

    return RepresentationTuple(
        key=SyncKey(camera_id=camera_id, frame_id=fid, timestamp_us=fid * 33333),
        env_png=env,
        poses=[(1, KeypointSet(joints=joints))],
    )


class TestPrivacyGate:
    def test_well_formed_tuple_passes(self):
        assert privacy_gate(tup(0), (16, 12)) is None

    def test_resolution_mismatch_violates(self):
        with pytest.raises(GateViolationError, match="PNG is 16x12, expected 320x240"):
            privacy_gate(tup(0), (320, 240))

    def test_undecodable_env_violates_resolution_rule(self):
        with pytest.raises(GateViolationError, match="bad signature"):
            privacy_gate(tup(0, env=b"not a png"), (16, 12))

    def test_out_of_range_confidence_detected(self):
        # no gate rule for it: encode refuses the tuple before a byte leaves
        bad = tup(0)
        bad.poses[0][1].joints[3, 2] = 1.5
        assert privacy_gate(bad, (16, 12)) is None
        with pytest.raises(ValidationError, match="confidences must lie in"):
            encode(bad)


def released_ids(result):
    return [t.key.frame_id for t in result]


class TestReorderBuffer:
    def test_in_order_passthrough(self):
        buf = ReorderBuffer()
        all_events = []
        out = []
        for fid in (0, 1, 2):
            released, events = buf.accept(tup(fid))
            out += released_ids(released)
            all_events += events
        assert out == [0, 1, 2]
        assert all_events == []

    def test_simple_reordering(self):
        buf = ReorderBuffer()
        assert released_ids(buf.accept(tup(0))[0]) == [0]
        assert released_ids(buf.accept(tup(2))[0]) == []
        assert released_ids(buf.accept(tup(1))[0]) == [1, 2]

    def test_gap_declared_when_overtaken_by_30_frames(self):
        # frame 2 never arrives; the gap rule fires when a frame at least
        # missing+30 = 32 shows up, after which delivery resumes
        buf = ReorderBuffer()
        out, events = [], []
        for fid in [0, 1] + list(range(3, 34)):
            released, ev = buf.accept(tup(fid))
            out += released_ids(released)
            events += ev
            if fid == 31:
                assert events == []  # not yet: max_seen 31 < 2 + 30
        assert events == [GapEvent(0, 2)]
        assert out == [0, 1] + list(range(3, 34))

    def test_duplicates_discarded_with_event(self):
        buf = ReorderBuffer()
        buf.accept(tup(0))
        released, events = buf.accept(tup(0))
        assert released == []
        assert events == [DuplicateEvent(0, 0)]
        buf.accept(tup(2))
        released, events = buf.accept(tup(2))
        assert events == [DuplicateEvent(0, 2)]

    def test_known_start_handles_shuffle_at_stream_head(self):
        # every stream starts at frame 0, so a shuffled head still waits for it
        buf = ReorderBuffer()
        released, events = buf.accept(tup(2))
        assert released == [] and events == []
        assert released_ids(buf.accept(tup(0))[0]) == [0]
        assert released_ids(buf.accept(tup(1))[0]) == [1, 2]

    def test_flush_releases_rest_and_declares_holes(self):
        buf = ReorderBuffer()
        buf.accept(tup(0))
        buf.accept(tup(1))
        buf.accept(tup(3))
        buf.accept(tup(5))
        released, events = buf.flush()
        assert released_ids(released) == [3, 5]
        assert events == [GapEvent(0, 2), GapEvent(0, 4)]

    def test_strictly_increasing_release_order_property(self):
        rng = np.random.default_rng(12)
        fids = np.arange(120)
        # local shuffle with displacement well within gap_frames
        perm = np.argsort(fids + rng.uniform(0, 8, size=len(fids)))
        buf = ReorderBuffer()
        out = []
        for fid in fids[perm]:
            released, _ = buf.accept(tup(int(fid)))
            out += released_ids(released)
        out += released_ids(buf.flush()[0])
        assert out == sorted(out)
        assert out == list(range(120))

    def test_camera_mismatch_rejected(self):
        buf = ReorderBuffer()
        buf.accept(tup(0, camera_id=1))
        with pytest.raises(ValidationError):
            buf.accept(tup(1, camera_id=2))

