import numpy as np
import pytest

from proxycam.errors import GateViolationError, ValidationError
from proxycam.pngio import WIRE_LEVEL, encode_png
from proxycam.skeleton import KeypointSet
from proxycam.transport.gate import privacy_gate
from proxycam.transport.model import RepresentationTuple, SyncKey
from proxycam.transport.reorder import (
    GAP_FRAMES,
    DuplicateEvent,
    GapEvent,
    ReorderBuffer,
)

PNG_16x12 = encode_png(np.full((12, 16, 3), 50, dtype=np.uint8), WIRE_LEVEL)


def tup(fid, camera_id=0, env=PNG_16x12):
    pose = KeypointSet(points=np.zeros((17, 2)), visible=np.ones(17, dtype=bool))
    return RepresentationTuple(
        key=SyncKey(camera_id=camera_id, frame_id=fid, timestamp_us=fid * 33333),
        env_png=env,
        poses=[(1, pose)],
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
        assert events == [GapEvent(0, 2, 1)]
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
        assert events == [GapEvent(0, 2, 1), GapEvent(0, 4, 1)]

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



def feed_all(fids):
    """Feed `fids` to one buffer, then flush; returns the releases and, per
    arrival (the flush last), the gap events."""
    buf = ReorderBuffer()
    out, gaps = [], []
    for result in [buf.accept(tup(fid)) for fid in fids] + [buf.flush()]:
        out += released_ids(result[0])
        gaps.append([e for e in result[1] if isinstance(e, GapEvent)])
    return out, gaps


def one_by_one(fids):
    """The gap rule applied one frame id at a time: the releases and, per
    arrival (the flush last), the frames declared dropped."""
    pending, nxt, newest, out, declared = set(), 0, -1, [], []

    def drain(ended):
        nonlocal nxt
        step = []
        while pending:
            if nxt in pending:
                pending.remove(nxt)
                out.append(nxt)
            elif ended or newest >= nxt + GAP_FRAMES:
                step.append(nxt)
            else:
                break
            nxt += 1
        declared.append(step)

    for fid in fids:
        if fid < nxt or fid in pending:
            declared.append([])
            continue
        pending.add(fid)
        newest = max(newest, fid)
        drain(False)
    drain(True)
    return out, declared


class TestGapRuns:
    """A run of holes is one event, however long the run."""

    def test_jump_of_a_million_frames_is_at_most_two_events(self):
        out, gaps = feed_all([0, 10**6])
        events = [e for step in gaps for e in step]
        assert len(events) <= 2
        assert events == [GapEvent(0, 1, 10**6 - GAP_FRAMES), GapEvent(0, 10**6 - 29, 29)]
        assert out == [0, 10**6]

    def test_jump_to_two_to_the_63_declares_each_skipped_frame_once(self):
        out, gaps = feed_all([0, 2**63])
        events = [e for step in gaps for e in step]
        assert out == [0, 2**63]
        assert all(e.count > 0 for e in events)
        # the runs tile frames 1 .. 2**63 - 1: no frame twice, none left out
        assert events[0].frame_id == 1
        for a, b in zip(events, events[1:]):
            assert b.frame_id == a.frame_id + a.count
        assert events[-1].frame_id + events[-1].count == 2**63
        assert sum(e.count for e in events) == 2**63 - 1

    @pytest.mark.parametrize("seed", range(6))
    def test_runs_declare_the_frames_the_per_frame_rule_declares(self, seed):
        # drops, local shuffles, duplicates and jumps; each arrival must
        # declare exactly the frames the one-at-a-time rule declares then
        rng = np.random.default_rng(seed)
        fids = [f for f in range(150) if rng.uniform() > 0.15]
        fids += [int(j) for j in rng.integers(150, 400, size=3)] + [405, 406]
        fids = [fids[i] for i in np.argsort(np.arange(len(fids)) + rng.uniform(0, 12, len(fids)))]
        fids += [fids[i] for i in rng.integers(0, len(fids), size=5)]
        out, gaps = feed_all(fids)
        runs = [[f for e in step for f in range(e.frame_id, e.frame_id + e.count)] for step in gaps]
        assert (out, runs) == one_by_one(fids)
        assert any(len(step) > 1 for step in runs)
