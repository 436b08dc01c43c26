import numpy as np
import pytest

from proxycam.edge.compose import embed, occlusion_order
from proxycam.edge.track import Track
from proxycam.errors import DegeneratePoseError
from proxycam.geometry import BoundingBox
from proxycam.pngio import decode_png
from proxycam.proxy import (
    FILL_COLOR,
    OUTLINE_COLOR,
    ProxyReuse,
    SkeletalProxy,
    overlay,
    render_proxy,
)
from proxycam.sim.generate import generate_scene
from proxycam.skeleton import KeypointSet

from conftest import scene, solo_actor

FRAME_SIZE = (320, 240)


def stand_pose(x=110.0, clothing=(200, 40, 40)):
    spec = scene(
        [solo_actor([(0, 2, "stand")], clothing=clothing, trajectory=((0, x, 200.0),))],
        frame_count=2,
    )
    _, gts = generate_scene(spec)
    return gts[0].actors[0].keypoints


class TestRenderProxy:
    def test_standing_silhouette_is_tall(self):
        kp = stand_pose()
        proxy = render_proxy(kp, FRAME_SIZE)
        ys, xs = np.nonzero(proxy.raster[:, :, 3])
        ratio = (ys.max() - ys.min() + 1) / (xs.max() - xs.min() + 1)
        assert ratio > 2.0

    def test_deterministic(self):
        kp = stand_pose()
        a = render_proxy(kp, FRAME_SIZE)
        b = render_proxy(kp, FRAME_SIZE)
        assert np.array_equal(a.raster, b.raster)
        assert a.anchor == b.anchor

    def test_appearance_never_enters_the_render(self):
        kp_red = stand_pose(clothing=(200, 40, 40))
        kp_blue = stand_pose(clothing=(40, 60, 200))
        assert kp_red == kp_blue  # same pose regardless of appearance
        a = render_proxy(kp_red, FRAME_SIZE)
        b = render_proxy(kp_blue, FRAME_SIZE)
        assert np.array_equal(a.raster, b.raster)

    def test_palette_is_fill_and_outline_only(self):
        kp = stand_pose()
        proxy = render_proxy(kp, FRAME_SIZE)
        opaque = proxy.raster[proxy.raster[:, :, 3] > 0][:, :3]
        colors = {tuple(c) for c in np.unique(opaque, axis=0)}
        assert colors == {FILL_COLOR, OUTLINE_COLOR}

    def test_opaque_support_is_connected(self):
        from scipy import ndimage

        kp = stand_pose()
        proxy = render_proxy(kp, FRAME_SIZE)
        _, n = ndimage.label(proxy.raster[:, :, 3] > 0, structure=np.ones((3, 3)))
        assert n == 1

    def test_too_few_visible_joints_degenerate(self):
        joints = np.zeros((17, 3), dtype=np.float32)
        joints[0] = (100, 100, 1.0)
        kp = KeypointSet(joints=joints)
        with pytest.raises(DegeneratePoseError):
            render_proxy(kp, FRAME_SIZE)


class CountingRender:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return render_proxy(*args)


def same_proxy(a, b):
    return np.array_equal(a.raster, b.raster) and a.anchor == b.anchor


class TestProxyReuse:
    def test_unchanged_inputs_reuse_the_fresh_raster(self):
        kp = stand_pose()
        reuse, render = ProxyReuse(), CountingRender()
        first = reuse.render(1, kp, FRAME_SIZE, render)
        # an equal pose in a new object is still the same input
        again = KeypointSet(joints=kp.joints.copy(), head_yaw=kp.head_yaw)
        second = reuse.render(1, again, FRAME_SIZE, render)
        assert render.calls == 1
        assert second is first
        assert same_proxy(second, render_proxy(kp, FRAME_SIZE))
        assert not second.raster.flags.writeable

    def test_any_changed_input_renders_again(self):
        kp = stand_pose()
        torsoless = kp.joints.copy()
        torsoless[[5, 6], 2] = 0.0  # hide the shoulders: torso falls back to the extent
        moved = kp.joints.copy()
        moved[9, 0] += 0.25
        dimmed = kp.joints.copy()
        dimmed[9, 2] *= 0.5  # confidence only
        inputs = [
            (KeypointSet(torsoless, kp.head_yaw), FRAME_SIZE),
            (KeypointSet(moved, kp.head_yaw), FRAME_SIZE),
            (KeypointSet(dimmed, kp.head_yaw), FRAME_SIZE),
            (KeypointSet(dimmed, None), FRAME_SIZE),
            (KeypointSet(dimmed, 0.5), FRAME_SIZE),
            (KeypointSet(dimmed, 0.5), (300, 240)),
        ]
        reuse, render = ProxyReuse(), CountingRender()
        reuse.render(1, kp, FRAME_SIZE, render)
        for n, args in enumerate(inputs, start=2):
            proxy = reuse.render(1, *args, render)
            assert render.calls == n
            assert same_proxy(proxy, render_proxy(*args))

    def test_departed_subjects_are_dropped(self):
        kp = stand_pose()
        other = stand_pose(x=220.0)
        reuse, render = ProxyReuse(), CountingRender()
        reuse.render(1, kp, FRAME_SIZE, render)
        reuse.render(2, other, FRAME_SIZE, render)
        reuse.retain([2])
        reuse.render(2, other, FRAME_SIZE, render)
        assert render.calls == 2
        reuse.render(1, kp, FRAME_SIZE, render)
        assert render.calls == 3

    def test_subjects_do_not_share_entries(self):
        kp = stand_pose()
        other = stand_pose(x=220.0)
        reuse, render = ProxyReuse(), CountingRender()
        a = reuse.render(1, kp, FRAME_SIZE, render)
        b = reuse.render(2, other, FRAME_SIZE, render)
        assert render.calls == 2
        assert same_proxy(a, render_proxy(kp, FRAME_SIZE))
        assert same_proxy(b, render_proxy(other, FRAME_SIZE))


class TestCloudProxyReuse:
    def packet(self, camera, frame_id, sid, pose):
        from proxycam.runner import build_tuple
        from proxycam.transport.codec import encode

        class Output:
            desensitized = np.full((FRAME_SIZE[1], FRAME_SIZE[0], 3), 90, np.uint8)
            poses = ((sid, pose),)
            order = (sid,)

        return encode(build_tuple(Output, camera, frame_id, frame_id * 33_333))

    def test_cameras_with_the_same_subject_ids_keep_their_own_entries(
        self, tmp_path, monkeypatch
    ):
        from importlib import import_module

        from proxycam.config import RunConfig
        from proxycam.runner import CloudRunner

        # the package re-exports a function under the module's name
        reconstruct_module = import_module("proxycam.cloud.reconstruct")
        poses = {0: stand_pose(), 1: stand_pose(x=220.0)}
        env = np.full((FRAME_SIZE[1], FRAME_SIZE[0], 3), 90, np.uint8)
        expected = {
            camera: reconstruct_module.reconstruct(
                env, reconstruct_module.render_proxies([(1, pose)], [1], FRAME_SIZE)
            )
            for camera, pose in poses.items()
        }
        render = CountingRender()
        monkeypatch.setattr(reconstruct_module, "render_proxy", render)
        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        for frame_id in range(4):
            for camera, pose in poses.items():
                # subject 1 on both cameras, each holding still
                cloud.feed(self.packet(camera, frame_id, 1, pose))
                recon_png = tmp_path / f"cam{camera}_frame{frame_id}.png"
                recon = decode_png(recon_png.read_bytes())
                assert np.array_equal(recon, expected[camera])
        # one render per camera; every later frame reuses its own camera's entry
        assert render.calls == len(poses)


def square_proxy(sid, x0, y0, size=20, alpha_fill=255):
    raster = np.zeros((size, size, 4), dtype=np.uint8)
    raster[:, :, :3] = (10 * sid, 20 * sid, 30 * sid)
    raster[:, :, 3] = alpha_fill
    return SkeletalProxy(raster=raster, anchor=(x0, y0))


class TestOverlay:
    def test_no_proxies_is_identity(self):
        base = np.random.default_rng(0).integers(0, 256, (60, 80, 3), dtype=np.uint8)
        assert np.array_equal(overlay(base, []), base)

    def test_painter_rule_front_proxy_wins_overlap(self):
        base = np.zeros((60, 80, 3), dtype=np.uint8)
        a, b = square_proxy(1, 10, 10), square_proxy(2, 20, 20)
        out = overlay(base, [b, a])  # back-to-front: b then a
        # the overlap [20:30, 20:30] belongs to a (painted last)
        assert np.all(out[25, 25] == (10, 20, 30))

    def test_order_flip_changes_overlap_only(self):
        base = np.random.default_rng(1).integers(0, 256, (60, 80, 3), dtype=np.uint8)
        a, b = square_proxy(1, 10, 10), square_proxy(2, 20, 20)
        ab = overlay(base, [a, b])
        ba = overlay(base, [b, a])
        assert np.any(ab[20:30, 20:30] != ba[20:30, 20:30])
        union = np.zeros((60, 80), bool)
        union[10:30, 10:30] = True
        union[20:40, 20:40] = True
        assert np.array_equal(ab[~union], ba[~union])
        assert np.array_equal(ab[~union], base[~union])

    def test_frame_is_left_untouched(self):
        base = np.zeros((60, 80, 3), dtype=np.uint8)
        out = overlay(base, [square_proxy(1, 0, 0)])
        assert out[5, 5].any()
        assert not base.any()

    def test_proxy_past_the_frame_edge_is_clipped(self):
        base = np.zeros((60, 80, 3), dtype=np.uint8)
        out = overlay(base, [square_proxy(1, -10, 50)])
        assert not out[:50].any()
        assert np.all(out[50:, :10] == (10, 20, 30))
        assert not out[50:, 10:].any()


def track_at(sid, x, y, w=30, h=60, velocity=(0.0, 0.0)):
    return Track(subject_id=sid, box=BoundingBox(x, y, w, h), velocity=velocity)


def pose_with_ankles(v, visible=True):
    joints = np.zeros((17, 3), dtype=np.float32)
    joints[:, 0] = 100.0
    joints[:, 1] = v - 50.0
    joints[:, 2] = 1.0
    joints[15] = (95.0, v, 1.0 if visible else 0.0)
    joints[16] = (105.0, v, 1.0 if visible else 0.0)
    return KeypointSet(joints=joints)


class TestOcclusionOrder:
    def test_singleton(self):
        order = occlusion_order([track_at(1, 0, 0)], {1: pose_with_ankles(100)})
        assert order == [1]

    def test_lower_ankles_are_nearer(self):
        poses = {1: pose_with_ankles(200), 2: pose_with_ankles(120)}
        tracks = [track_at(1, 0, 0), track_at(2, 0, 0)]
        assert occlusion_order(tracks, poses) == [2, 1]

    def test_invisible_ankles_fall_back_to_predicted_box_bottom(self):
        # subject 1's box bottom (plus velocity) sits below subject 2's
        # ankles, so the order is stable while its ankles are hidden
        tracks = [
            track_at(1, 85, 150, h=52, velocity=(0.0, 1.0)),  # bottom ~203
            track_at(2, 85, 60, h=60),
        ]
        poses = {1: pose_with_ankles(200, visible=False), 2: pose_with_ankles(120)}
        for _ in range(3):
            assert occlusion_order(tracks, poses) == [2, 1]

    def test_tie_breaks_on_subject_id(self):
        poses = {3: pose_with_ankles(150), 1: pose_with_ankles(150)}
        tracks = [track_at(3, 0, 0), track_at(1, 0, 0)]
        assert occlusion_order(tracks, poses) == [1, 3]


class TestEmbed:
    def test_all_black_is_zeros(self):
        assert np.array_equal(embed(np.zeros((64, 64, 3), np.uint8)), np.zeros(64, np.float32))

    def test_all_white_is_ones(self):
        composite = np.full((64, 64, 3), 255, dtype=np.uint8)
        assert np.array_equal(embed(composite), np.ones(64, np.float32))

    def test_half_black_half_white_splits_columns(self):
        composite = np.zeros((64, 128, 3), dtype=np.uint8)
        composite[:, 64:] = 255
        grid = embed(composite).reshape(8, 8)
        assert np.all(grid[:, :4] == 0.0)
        assert np.all(grid[:, 4:] == 1.0)

    def test_range_and_dimension(self):
        rng = np.random.default_rng(5)
        emb = embed(rng.integers(0, 256, (93, 177, 3), dtype=np.uint8))
        assert emb.shape == (64,)
        assert emb.dtype == np.float32
        assert np.all(emb >= 0.0) and np.all(emb <= 1.0)
