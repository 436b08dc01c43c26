"""Each distinct image is encoded once, and nothing else changes.

The edge takes the previous PNG bytes for a scrubbed image equal to the
previous one, and the cloud the previous reconstruction for a frame whose
env bytes and poses repeat bit for bit. Packets, reports and
reconstructions must equal those of a loop that encodes and draws every
frame afresh.
"""

import dataclasses
import gc
import json
import tracemalloc
from collections import deque

import numpy as np
import pytest

import proxycam.runner as runner_module
from proxycam import pngio
from proxycam.cloud.infer import INFER_WINDOW, infer
from proxycam.cloud.reconstruct import reconstruct, render_proxies
from proxycam.config import RunConfig
from proxycam.edge.pipeline import EdgeOutput
from proxycam.errors import GateViolationError, ValidationError
from proxycam.proxy import pose_key
from proxycam.runner import CloudRunner, EnvPngMemo, run_edge
from proxycam.sim.generate import generate_scene
from proxycam.skeleton import KeypointSet
from proxycam.transport.codec import decode, encode
from proxycam.transport.model import RepresentationTuple, SyncKey

from conftest import scene, solo_actor

# the cloud's retained growth per camera for one released frame of
# `one_frame_cameras`, before it kept a drawn frame's key and PNG
# (tracemalloc, CPython 3.11, numpy 2.4)
PER_CAMERA_BYTES_WITHOUT_MEMO = 34_220
# the rest of that growth beside the kept PNG and the kept proxy's codes:
# the camera's buffer, window, report, pose keys and records (measured
# 6,690 B, same interpreter and numpy)
PER_CAMERA_BYTES_BESIDE_PNG_AND_CODES = 6_700


class CountingEncode:
    """`pngio.encode_png`, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, image, level):
        self.calls += 1
        return pngio.encode_png(image, level)


@pytest.fixture
def counting_encode(monkeypatch):
    encode_png = CountingEncode()
    monkeypatch.setattr(runner_module, "encode_png", encode_png)
    return encode_png


def still_and_moving_scene():
    """Stands, walks, stands: two still stretches around a moving one."""
    actor = solo_actor(
        [(0, 8, "stand"), (8, 14, "walk"), (14, 24, "stand")],
        height_px=70,
        trajectory=((0, 50.0, 100.0), (8, 50.0, 100.0), (14, 90.0, 100.0)),
    )
    return scene([actor], frame_count=24, width=160, height=120)


def stand_pose(x=60.0, yaw=0.0):
    actor = solo_actor([(0, 1, "stand")], height_px=70, trajectory=((0, x, 100.0),))
    _, gts = generate_scene(scene([actor], frame_count=1, width=160, height=120))
    pose = gts[0].actors[0].keypoints
    return KeypointSet(pose.points, pose.visible, yaw)


ENV = np.full((120, 160, 3), 90, np.uint8)


def packet(camera, frame_id, poses, env_png=None):
    t = RepresentationTuple(
        key=SyncKey(camera, frame_id, frame_id * 33_333),
        env_png=pngio.encode_png(ENV, pngio.WIRE_LEVEL) if env_png is None else env_png,
        poses=list(poses.items()),
    )
    return encode(t)


def feed_all(tmp_path, packets):
    cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
    for p in packets:
        cloud.feed(p)
    cloud.finish()
    return cloud


def fresh_reconstruction(t: RepresentationTuple) -> bytes:
    """One frame decoded, drawn and encoded with no state kept from another."""
    env = pngio.decode_png(t.env_png)
    size = (env.shape[1], env.shape[0])
    image = reconstruct(env, render_proxies(t.poses, size))
    return pngio.encode_png(image, pngio.RECONSTRUCTION_LEVEL)


def recon(tmp_path, camera, frame_id) -> bytes:
    return (tmp_path / f"cam{camera}_frame{frame_id}.png").read_bytes()


class TestEncodeOncePerDistinctImage:
    def test_stream_with_still_stretches(self, tmp_path, counting_encode):
        sent = []
        stats = run_edge(RunConfig(), still_and_moving_scene(), sent.append, collect_outputs=True)
        outputs = stats["outputs"]
        images = [out.desensitized for out in outputs]
        distinct = 1 + sum(not np.array_equal(a, b) for a, b in zip(images, images[1:]))
        assert distinct <= len(images) - 10  # the stream has still stretches
        assert counting_encode.calls == distinct
        assert stats["env_png_reused"] == len(images) - distinct

        # a loop that encodes every frame gives the same packets
        reference = [
            encode(
                RepresentationTuple(
                    SyncKey(0, i, i * runner_module.us_per_frame(RunConfig().fps)),
                    pngio.encode_png(out.desensitized, pngio.WIRE_LEVEL),
                    list(out.poses),
                )
            )
            for i, out in enumerate(outputs)
        ]
        assert sent == reference

        counting_encode.calls = 0
        cloud = feed_all(tmp_path, sent)
        tuples = [decode(p) for p in sent]
        keys = [(t.env_png, [(sid, pose_key(p)) for sid, p in t.poses]) for t in tuples]
        repeats = sum(a == b for a, b in zip(keys, keys[1:]))
        assert repeats >= 10
        assert counting_encode.calls == len(tuples) - repeats
        assert cloud.reconstructions_reused == repeats

        window = deque(maxlen=INFER_WINDOW)
        for i, t in enumerate(tuples):
            window.append(t)
            assert cloud.reports[(0, i)] == infer(list(window))
            assert recon(tmp_path, 0, i) == fresh_reconstruction(t)

    def test_edge_log_says_which_frames_reused_their_bytes(self, tmp_path):
        log = runner_module.JsonlLog(tmp_path / "edge_log.jsonl")
        stats = run_edge(RunConfig(), still_and_moving_scene(), lambda p: None, log=log)
        log.close()
        lines = (tmp_path / "edge_log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["env_reused"] is False
        assert sum(r["env_reused"] for r in records) == stats["env_png_reused"] > 0


class TestEdgeMemo:
    def test_writing_into_an_encoded_image_cannot_change_the_next_bytes(self):
        memo = EnvPngMemo()
        image = ENV.copy()
        first = memo(image)
        image[10, 10] = 0  # the caller writes into the array it passed
        second = memo(image)
        assert not memo.hit
        assert second == pngio.encode_png(image, pngio.WIRE_LEVEL) != first

    def test_an_edge_that_rewrites_one_buffer_sends_each_frame(self, tmp_path, monkeypatch):
        # every frame's scrubbed image is the same array, overwritten in place
        buffer = np.zeros((120, 160, 3), np.uint8)

        def process_frame(state, frame, gt):
            buffer[:] = frame
            return EdgeOutput(buffer, ())

        monkeypatch.setattr(runner_module, "process_frame", process_frame)
        sent = []
        run_edge(RunConfig(), still_and_moving_scene(), sent.append)
        frames, _ = generate_scene(still_and_moving_scene())
        expected = [pngio.encode_png(f, pngio.WIRE_LEVEL) for f in frames]
        assert [decode(p).env_png for p in sent] == expected

    def test_equal_pixels_of_another_dtype_are_not_a_hit(self):
        memo = EnvPngMemo()
        memo(ENV)
        with pytest.raises(ValidationError):
            memo(ENV.astype(np.int16))
        assert not memo.hit


class TestGateOncePerDistinctImage:
    def test_the_gate_decodes_only_new_bytes(self, monkeypatch):
        calls = []
        real_gate = runner_module.privacy_gate

        def privacy_gate(t, stream_resolution):
            calls.append(t.key.frame_id)
            real_gate(t, stream_resolution)

        monkeypatch.setattr(runner_module, "privacy_gate", privacy_gate)
        spec = still_and_moving_scene()
        stats = run_edge(RunConfig(), spec, lambda p: None)
        assert stats["env_png_reused"] >= 10
        assert len(calls) == spec.frame_count - stats["env_png_reused"]
        assert calls[0] == 0

    def test_new_bytes_of_the_wrong_size_still_abort_the_run(self, monkeypatch):
        # the third encode, a frame whose image differs from the one
        # before, gives a valid PNG of another size
        encodes = []
        small = pngio.encode_png(np.zeros((8, 8, 3), np.uint8), pngio.WIRE_LEVEL)

        def encode_png(image, level):
            encodes.append(image)
            return small if len(encodes) == 3 else pngio.encode_png(image, level)

        monkeypatch.setattr(runner_module, "encode_png", encode_png)
        sent = []
        with pytest.raises(GateViolationError, match="env image refused"):
            run_edge(RunConfig(), still_and_moving_scene(), sent.append)
        assert len(encodes) == 3
        assert len(sent) > 2  # frames that reused their bytes came first
        assert small not in [decode(p).env_png for p in sent]


SMALL_PNG = pngio.encode_png(np.zeros((8, 8, 3), np.uint8), pngio.WIRE_LEVEL)


class TestCloudMemoCorners:
    def test_repeated_malformed_env_is_counted_each_time(self, tmp_path, counting_encode):
        pose = {1: stand_pose()}
        packets = [
            packet(0, 0, pose),
            packet(0, 1, pose, env_png=b"not a png"),
            packet(0, 2, pose, env_png=b"not a png"),
            packet(0, 3, pose, env_png=SMALL_PNG),
            packet(0, 4, pose, env_png=SMALL_PNG),
            packet(0, 5, pose),
        ]
        cloud = feed_all(tmp_path, packets)
        assert cloud.malformed == 4
        assert sorted(cloud.reports) == [(0, 0), (0, 5)]
        assert cloud.reconstructions_reused == 1
        assert counting_encode.calls == 1
        assert recon(tmp_path, 0, 5) == recon(tmp_path, 0, 0)

    @pytest.mark.parametrize("change", ["negative_zero_yaw", "one_visibility_bit"])
    def test_a_bitwise_pose_change_is_redrawn(self, tmp_path, counting_encode, change):
        pose = stand_pose(yaw=0.0)
        if change == "negative_zero_yaw":
            other = KeypointSet(pose.points, pose.visible, -0.0)
        else:
            visible = pose.visible.copy()
            visible[9] = not visible[9]
            other = KeypointSet(pose.points, visible, pose.head_yaw)
        assert other.head_yaw == pose.head_yaw  # 0.0 == -0.0 by value
        # the codec keeps a -0.0 yaw's sign, so the change crosses the wire
        packets = [packet(0, 0, {1: pose}), packet(0, 1, {1: other})]
        cloud = feed_all(tmp_path, packets)
        assert cloud.reconstructions_reused == 0
        assert counting_encode.calls == 2
        for i, p in enumerate(packets):
            assert recon(tmp_path, 0, i) == fresh_reconstruction(decode(p))

    def test_interleaved_cameras_keep_their_own_reconstructions(self, tmp_path, counting_encode):
        poses = {0: {1: stand_pose(x=50.0)}, 1: {1: stand_pose(x=110.0)}}
        packets = [packet(cam, fid, poses[cam]) for fid in range(4) for cam in (0, 1)]
        cloud = feed_all(tmp_path, packets)
        # equal env bytes on both cameras, but each camera repeats only itself
        assert counting_encode.calls == 2
        assert cloud.reconstructions_reused == 6
        expected = {cam: fresh_reconstruction(decode(packet(cam, 0, poses[cam]))) for cam in poses}
        assert expected[0] != expected[1]
        for fid in range(4):
            for cam in poses:
                assert recon(tmp_path, cam, fid) == expected[cam]


def one_frame_cameras(count):
    """`count` packets of one released 320x240 frame, each on its own camera."""
    actor = solo_actor([(0, 1, "stand")])
    sent = []
    run_edge(RunConfig(), scene([actor], frame_count=1), sent.append)
    t = decode(sent[0])
    return [
        encode(dataclasses.replace(t, key=dataclasses.replace(t.key, camera_id=c)))
        for c in range(count)
    ]


def test_memory_per_camera_grows_by_the_kept_png_alone(tmp_path):
    count = 100
    packets = one_frame_cameras(count + 2)
    cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
    for p in packets[:2]:  # the first cameras warm the caches of the code paths
        cloud.feed(p)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for p in packets[2:]:
            cloud.feed(p)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_camera = (after - before) / count
    kept_png = len(recon(tmp_path, 0, 0))
    assert per_camera <= PER_CAMERA_BYTES_WITHOUT_MEMO + kept_png + 1024
    # a kept proxy costs a byte per patch pixel; an RGBA raster costs four
    (pose,) = decode(packets[0]).poses
    patch_pixels = sum(p.codes.size for p in render_proxies([pose], (320, 240)))
    assert per_camera <= kept_png + patch_pixels + PER_CAMERA_BYTES_BESIDE_PNG_AND_CODES + 1024
    assert per_camera < 320 * 240 * 3  # no decoded image is kept
