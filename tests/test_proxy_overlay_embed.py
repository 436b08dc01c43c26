import numpy as np
from hypothesis import given, settings, strategies as st

import proxycam.proxy as proxy_module
import proxycam.runner as runner_module
from proxycam.config import RunConfig
from proxycam.edge.track import Track
from proxycam.geometry import BoundingBox
from proxycam.pngio import decode_png, encode_png
from proxycam.proxy import (
    FILL_COLOR,
    OUTLINE_COLOR,
    SkeletalProxy,
    occlusion_order,
    overlay,
    pose_key,
    render_proxies,
    render_proxy,
    support,
)
from proxycam.raster import embed
from proxycam.runner import CloudRunner
from proxycam.sim.generate import generate_scene
from proxycam.skeleton import L_ANKLE, L_KNEE, R_ANKLE, KeypointSet
from proxycam.transport.codec import encode
from proxycam.transport.model import RepresentationTuple, SyncKey

from conftest import scene, solo_actor

FRAME_SIZE = (320, 240)


def stand_pose(x=110.0, clothing=(200, 40, 40)):
    spec = scene(
        [solo_actor([(0, 2, "stand")], clothing=clothing, trajectory=((0, x, 200.0),))],
        frame_count=2,
    )
    _, gts = generate_scene(spec)
    return gts[0].actors[0].keypoints


def draw(pose, frame_size=FRAME_SIZE):
    """One subject's proxy, drawn alone."""
    return render_proxy({1: pose}, frame_size)[1]


class TestRenderProxy:
    def test_standing_silhouette_is_tall(self):
        kp = stand_pose()
        proxy = draw(kp)
        ys, xs = np.nonzero(proxy.raster[:, :, 3])
        ratio = (ys.max() - ys.min() + 1) / (xs.max() - xs.min() + 1)
        assert ratio > 2.0

    def test_deterministic(self):
        kp = stand_pose()
        a = draw(kp)
        b = draw(kp)
        assert np.array_equal(a.raster, b.raster)
        assert a.anchor == b.anchor

    def test_appearance_never_enters_the_render(self):
        kp_red = stand_pose(clothing=(200, 40, 40))
        kp_blue = stand_pose(clothing=(40, 60, 200))
        assert kp_red == kp_blue  # same pose regardless of appearance
        a = draw(kp_red)
        b = draw(kp_blue)
        assert np.array_equal(a.raster, b.raster)

    def test_palette_is_fill_and_outline_only(self):
        kp = stand_pose()
        proxy = draw(kp)
        opaque = proxy.raster[proxy.raster[:, :, 3] > 0][:, :3]
        colors = {tuple(c) for c in np.unique(opaque, axis=0)}
        assert colors == {FILL_COLOR, OUTLINE_COLOR}

    def test_opaque_support_is_connected(self):
        from scipy import ndimage

        kp = stand_pose()
        proxy = draw(kp)
        _, n = ndimage.label(proxy.raster[:, :, 3] > 0, structure=np.ones((3, 3)))
        assert n == 1

    def test_too_few_visible_joints_degenerate(self):
        kp = KeypointSet(points=np.full((17, 2), 100.0), visible=np.arange(17) == 0)
        assert render_proxy({1: kp}, FRAME_SIZE) == {}


def crowd_poses():
    """One frame of eight subjects of different sizes and actions, side by
    side and overlapping, one of them without a head yaw."""
    actors = [
        solo_actor(
            [(0, 2, action)],
            actor_id=f"a{i}",
            clothing=(40 + 20 * i, 40, 40),
            height_px=60 + 12 * i,
            trajectory=((0, 20.0 + 40.0 * i, 90.0 + 18.0 * i),),
        )
        for i, action in enumerate(["stand", "walk", "sit", "fall"] * 2)
    ]
    _, gts = generate_scene(scene(actors, frame_count=2))
    poses = {}
    for i, actor in enumerate(gts[0].actors):
        kp = actor.keypoints
        poses[10 + i] = KeypointSet(kp.points, kp.visible, None if i == 3 else 0.4 * i - 1.0)
    return poses


class TestProxyBatch:
    def test_one_call_draws_each_subject_as_drawn_alone(self):
        poses = crowd_poses()
        assert len(poses) == 8
        together = render_proxy(poses, FRAME_SIZE)
        assert sorted(together) == sorted(poses)
        for sid, pose in poses.items():
            assert same_proxy(together[sid], draw(pose))

    def test_undrawable_poses_are_left_out_and_the_rest_unaffected(self):
        poses = crowd_poses()
        lone = KeypointSet(points=np.full((17, 2), 100.0), visible=np.arange(17) == 0)
        off_frame = KeypointSet(
            points=poses[10].points - np.float32(500.0), visible=poses[10].visible
        )
        mixed = {10: poses[10], 1: lone, 11: poses[11], 2: off_frame, 12: poses[12]}
        together = render_proxy(mixed, FRAME_SIZE)
        assert sorted(together) == [10, 11, 12]
        for sid in (10, 11, 12):
            assert same_proxy(together[sid], draw(poses[sid]))


class CountingRender:
    """`render_proxy` that records the subjects and the result of each call."""

    def __init__(self):
        self.batches = []
        self.results = []

    @property
    def calls(self):
        return len(self.batches)

    def __call__(self, poses, frame_size):
        self.batches.append(sorted(poses))
        self.results.append(render_proxy(poses, frame_size))
        return self.results[-1]


def same_proxy(a, b):
    return np.array_equal(a.raster, b.raster) and a.anchor == b.anchor


def shade(frame_id):
    """The flat env image of a `ReuseCloud` frame: a new shade each frame."""
    return np.full((FRAME_SIZE[1], FRAME_SIZE[0], 3), 90 + frame_id, np.uint8)


class ReuseCloud:
    """A `CloudRunner` camera fed packets, with a counting fake on
    `proxy.render_proxy`. Each frame's env image differs from the one
    before unless the caller repeats it, so a frame is drawn rather than
    taken whole from the last one. `pasted` holds the env image and the
    proxies that each drawn frame's `reconstruct` received."""

    def __init__(self, tmp_path, monkeypatch):
        self.render = CountingRender()
        monkeypatch.setattr(proxy_module, "render_proxy", self.render)
        monkeypatch.setattr(runner_module, "reconstruct", self._reconstruct)
        self.pasted = []
        self.sent = []
        self.dir = tmp_path
        self.runner = CloudRunner(config=RunConfig(), out_dir=tmp_path)

    def _reconstruct(self, env, proxies):
        self.pasted.append((env, proxies))
        return overlay(env, proxies)

    def feed(self, poses, env_of=None):
        """Release one frame of `poses`; its env image is that of frame
        `env_of`, by default its own."""
        fid = len(self.sent)
        env = shade(fid if env_of is None else env_of)
        key = SyncKey(camera_id=0, frame_id=fid, timestamp_us=fid * 33_333)
        self.runner.feed(encode(RepresentationTuple(key, encode_png(env), list(poses.items()))))
        self.sent.append((env, dict(poses)))

    def assert_drawn_afresh(self):
        """Every reconstruction equals the frame drawn alone, with no reuse."""
        for fid, (env, poses) in enumerate(self.sent):
            drawn = render_proxy(poses, FRAME_SIZE)
            order = occlusion_order({sid: poses[sid] for sid in drawn})
            recon = decode_png((self.dir / f"cam0_frame{fid}.png").read_bytes())
            assert np.array_equal(recon, overlay(env, [drawn[sid] for sid in order])), fid


class TestProxyReuse:
    """A cloud camera keeps the proxy of each subject whose pose repeats
    bit for bit from the last frame it drew, and draws the rest."""

    def test_unchanged_inputs_reuse_the_fresh_raster(self, tmp_path, monkeypatch):
        kp = stand_pose()
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed({1: kp})
        # an equal pose in a new object is still the same input
        cloud.feed({1: KeypointSet(kp.points.copy(), kp.visible.copy(), kp.head_yaw)})
        assert cloud.render.calls == 1
        first = cloud.render.results[0][1]
        env, pasted = cloud.pasted[1]
        assert len(pasted) == 1 and pasted[0] is first
        assert np.array_equal(env, shade(1))
        assert same_proxy(first, draw(kp))
        assert not first.raster.flags.writeable
        assert (cloud.runner.proxies_drawn, cloud.runner.proxies_reused) == (1, 1)
        cloud.assert_drawn_afresh()

    def test_any_changed_input_renders_again(self, tmp_path, monkeypatch):
        kp = stand_pose()
        torsoless = kp.visible.copy()
        torsoless[[5, 6]] = False  # hide the shoulders: torso falls back to the extent
        moved = kp.points.copy()
        moved[9, 0] += 0.25
        flipped = kp.visible.copy()
        flipped[9] = False  # visibility only: the points equal the input before
        inputs = [
            KeypointSet(kp.points, torsoless, kp.head_yaw),
            KeypointSet(moved, kp.visible, kp.head_yaw),
            KeypointSet(moved, flipped, kp.head_yaw),
            KeypointSet(moved, flipped, None),
            KeypointSet(moved, flipped, 0.5),
        ]
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed({1: kp})
        for n, pose in enumerate(inputs, start=2):
            cloud.feed({1: pose})
            assert cloud.render.calls == n
            assert same_proxy(cloud.render.results[-1][1], draw(pose))
        assert cloud.runner.proxies_reused == 0
        cloud.assert_drawn_afresh()

    def test_pose_key_tells_apart_what_equal_comparison_does_not(self, tmp_path, monkeypatch):
        kp = stand_pose()
        same = KeypointSet(kp.points.copy(), kp.visible.copy(), kp.head_yaw)
        assert pose_key(same) == pose_key(kp)
        flipped = kp.visible.copy()
        flipped[9] = not flipped[9]
        plus = KeypointSet(kp.points, kp.visible, 0.0)
        minus = KeypointSet(kp.points, kp.visible, -0.0)
        assert plus.head_yaw == minus.head_yaw
        keys = [
            pose_key(plus),
            pose_key(minus),
            pose_key(KeypointSet(kp.points, kp.visible, None)),
            pose_key(KeypointSet(kp.points, flipped, 0.0)),
        ]
        assert len(set(keys)) == len(keys)
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed({1: plus})
        cloud.feed({1: minus})
        assert cloud.render.calls == 2
        cloud.assert_drawn_afresh()

    def test_departed_subjects_are_dropped(self, tmp_path, monkeypatch):
        kp = stand_pose()
        other = stand_pose(x=220.0)
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed({1: kp, 2: other})
        cloud.feed({2: other})
        assert cloud.render.batches == [[1, 2]]
        cloud.feed({1: kp, 2: other})
        assert cloud.render.batches == [[1, 2], [1]]
        cloud.assert_drawn_afresh()

    def test_subjects_do_not_share_entries(self, tmp_path, monkeypatch):
        kp = stand_pose()
        other = stand_pose(x=220.0)
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed({1: kp, 2: other})
        cloud.feed({1: other, 2: kp})  # the same poses, swapped between subjects
        assert cloud.render.batches == [[1, 2], [1, 2]]
        first, second = cloud.render.results
        assert same_proxy(first[1], draw(kp)) and same_proxy(first[2], draw(other))
        assert same_proxy(second[1], draw(other)) and same_proxy(second[2], draw(kp))
        cloud.assert_drawn_afresh()

    def test_misses_reach_the_renderer_in_one_call_and_hits_are_not_redrawn(
        self, tmp_path, monkeypatch
    ):
        poses = crowd_poses()
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed(poses)
        assert cloud.render.batches == [sorted(poses)]
        # two subjects move; the other six hold still
        moved = dict(poses)
        for sid in (11, 14):
            kp = poses[sid]
            moved[sid] = KeypointSet(kp.points + np.float32(1.5), kp.visible, kp.head_yaw)
        cloud.feed(moved)
        assert cloud.render.batches == [sorted(poses), [11, 14]]
        first = cloud.render.results[0]
        _, pasted = cloud.pasted[1]
        assert len(pasted) == len(poses)
        for sid in poses:
            if sid not in (11, 14):
                assert any(proxy is first[sid] for proxy in pasted)
        cloud.feed(moved)
        assert cloud.render.calls == 2
        assert (cloud.runner.proxies_drawn, cloud.runner.proxies_reused) == (8 + 2, 6 + 8)
        cloud.assert_drawn_afresh()

    def test_an_undrawable_miss_is_not_kept_and_is_tried_again(self, tmp_path, monkeypatch):
        kp = stand_pose()
        lone = KeypointSet(points=np.full((17, 2), 100.0), visible=np.arange(17) == 0)
        cloud = ReuseCloud(tmp_path, monkeypatch)
        for _ in range(3):
            cloud.feed({1: lone, 2: kp})
        # subject 2 is drawn once; subject 1 goes to the renderer every drawn frame
        assert cloud.render.batches == [[1, 2], [1], [1]]
        assert [len(pasted) for _, pasted in cloud.pasted] == [1, 1, 1]
        assert (cloud.runner.proxies_drawn, cloud.runner.proxies_reused) == (4, 2)
        cloud.assert_drawn_afresh()

    def test_new_env_bytes_under_repeated_poses_are_decoded_and_draw_nothing(
        self, tmp_path, monkeypatch
    ):
        poses = crowd_poses()
        cloud = ReuseCloud(tmp_path, monkeypatch)
        cloud.feed(poses)
        cloud.feed(poses)  # a new env image, every pose as before
        assert cloud.render.calls == 1
        assert len(cloud.pasted) == 2
        env, pasted = cloud.pasted[1]
        assert np.array_equal(env, shade(1))
        assert [id(p) for p in pasted] == [id(p) for p in cloud.pasted[0][1]]
        cloud.feed(poses, env_of=1)  # env bytes and poses repeat: the frame is taken whole
        assert len(cloud.pasted) == 2
        assert cloud.runner.reconstructions_reused == 1
        assert (cloud.runner.proxies_drawn, cloud.runner.proxies_reused) == (8, 8)
        cloud.assert_drawn_afresh()


class TestCloudProxyReuse:
    def packet(self, camera, frame_id, sid, pose):
        from proxycam.runner import build_tuple
        from proxycam.transport.codec import encode

        class Output:
            desensitized = np.full((FRAME_SIZE[1], FRAME_SIZE[0], 3), 90, np.uint8)
            poses = ((sid, pose),)

        return encode(build_tuple(Output, camera, frame_id, frame_id * 33_333))

    def test_cameras_with_the_same_subject_ids_keep_their_own_entries(
        self, tmp_path, monkeypatch
    ):
        import proxycam.proxy as proxy_module
        from proxycam.config import RunConfig
        from proxycam.runner import CloudRunner

        poses = {0: stand_pose(), 1: stand_pose(x=220.0)}
        env = np.full((FRAME_SIZE[1], FRAME_SIZE[0], 3), 90, np.uint8)
        expected = {
            camera: overlay(env, render_proxies([(1, pose)], FRAME_SIZE))
            for camera, pose in poses.items()
        }
        render = CountingRender()
        monkeypatch.setattr(proxy_module, "render_proxy", render)
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


class TestSupport:
    """`support` is the mask the attack once found by painting the proxies
    onto a black frame and keeping the non-zero pixels; both proxy colours
    are non-zero, so the two must agree."""

    @staticmethod
    def painted(proxies, frame_size):
        width, height = frame_size
        return overlay(np.zeros((height, width, 3), np.uint8), proxies).any(axis=2)

    def test_equals_the_painted_pixels_of_a_crowd(self):
        poses = crowd_poses()
        proxies = render_proxies(poses.items(), FRAME_SIZE)
        mask = support(proxies, FRAME_SIZE)
        assert mask.dtype == bool and mask.shape == (240, 320)
        assert mask.any()
        assert np.array_equal(mask, self.painted(proxies, FRAME_SIZE))

    def test_equals_the_painted_pixels_past_the_frame_edges(self):
        # proxies over each edge and corner, one wholly outside, and a patch
        # with transparent pixels
        corners = [(-10, 50), (70, -5), (-15, -15), (75, 55), (200, 10)]
        proxies = [square_proxy(1, x0, y0) for x0, y0 in corners]
        holed = square_proxy(2, 30, 20)
        holed.raster[::2, ::3, 3] = 0
        proxies.append(holed)
        assert np.array_equal(support(proxies, (80, 60)), self.painted(proxies, (80, 60)))
        assert not support([], (80, 60)).any()


def pose_with_ankles(v, visible=True):
    points = np.zeros((17, 2), dtype=np.float32)
    points[:, 0] = 100.0
    points[:, 1] = v - 50.0
    points[L_ANKLE] = (95.0, v)
    points[R_ANKLE] = (105.0, v)
    seen = np.ones(17, dtype=bool)
    seen[[L_ANKLE, R_ANKLE]] = visible
    return KeypointSet(points=points, visible=seen)


def track_based_order(tracks, poses):
    """The order of wire format 2, kept as a reference: the ankle-midpoint
    row, else the bottom of the subject's velocity-predicted track box."""
    by_id = {t.subject_id: t for t in tracks}
    keyed = []
    for sid, pose in poses.items():
        ankle = pose.midpoint(L_ANKLE, R_ANKLE)
        if ankle is not None:
            depth = float(ankle[1])
        else:
            depth = by_id[sid].predicted_box().y2
        keyed.append((depth, sid))
    return [sid for _, sid in sorted(keyed)]


@st.composite
def poses_with_an_ankle_and_tracks(draw):
    sids = draw(st.lists(st.integers(0, 50), max_size=6, unique=True))
    rows = st.floats(0.0, 240.0, width=32)
    poses, tracks = {}, []
    for sid in sids:
        points = np.zeros((17, 2), dtype=np.float32)
        points[:, 1] = draw(st.lists(rows, min_size=17, max_size=17))
        visible = np.array(draw(st.lists(st.booleans(), min_size=17, max_size=17)))
        visible[draw(st.sampled_from([L_ANKLE, R_ANKLE]))] = True
        poses[sid] = KeypointSet(points=points, visible=visible)
        box = BoundingBox(0.0, draw(rows), 30.0, draw(st.floats(1.0, 120.0)))
        velocity = (0.0, draw(st.floats(-5.0, 5.0)))
        tracks.append(Track(subject_id=sid, box=box, velocity=velocity))
    return tracks, poses


class TestOcclusionOrder:
    def test_singleton(self):
        assert occlusion_order({1: pose_with_ankles(100)}) == [1]

    def test_lower_ankles_are_nearer(self):
        poses = {1: pose_with_ankles(200), 2: pose_with_ankles(120)}
        assert occlusion_order(poses) == [2, 1]

    def test_hidden_ankles_use_the_lowest_visible_joint(self):
        # subject 1 hides both ankles (their rows, 200, do not count); its
        # lowest visible joint is a knee at row 170, between the ankles of
        # subject 3 (160) and subject 2 (180)
        hidden = pose_with_ankles(200, visible=False)
        hidden.points[L_KNEE] = (98.0, 170.0)
        poses = {1: hidden, 2: pose_with_ankles(180), 3: pose_with_ankles(160)}
        assert occlusion_order(poses) == [3, 1, 2]

    def test_tie_breaks_on_subject_id(self):
        poses = {3: pose_with_ankles(150), 1: pose_with_ankles(150)}
        assert occlusion_order(poses) == [1, 3]

    @settings(max_examples=200, deadline=None)
    @given(poses_with_an_ankle_and_tracks())
    def test_equals_the_track_based_order_while_an_ankle_shows(self, case):
        tracks, poses = case
        assert occlusion_order(poses) == track_based_order(tracks, poses)


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
