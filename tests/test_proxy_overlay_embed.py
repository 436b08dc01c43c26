import numpy as np
from hypothesis import given, settings, strategies as st

from proxycam.edge.compose import embed
from proxycam.edge.track import Track
from proxycam.geometry import BoundingBox
from proxycam.pngio import decode_png
from proxycam.proxy import (
    FILL_COLOR,
    OUTLINE_COLOR,
    ProxyReuse,
    SkeletalProxy,
    occlusion_order,
    overlay,
    render_proxies,
    render_proxy,
)
from proxycam.sim.generate import generate_scene
from proxycam.skeleton import L_ANKLE, L_KNEE, R_ANKLE, KeypointSet

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
    """`render_proxy` that records the subjects of each call."""

    def __init__(self):
        self.batches = []

    @property
    def calls(self):
        return len(self.batches)

    def __call__(self, poses, frame_size):
        self.batches.append(sorted(poses))
        return render_proxy(poses, frame_size)


def same_proxy(a, b):
    return np.array_equal(a.raster, b.raster) and a.anchor == b.anchor


class TestProxyReuse:
    def test_unchanged_inputs_reuse_the_fresh_raster(self):
        kp = stand_pose()
        reuse, render = ProxyReuse(), CountingRender()
        first = reuse.render({1: kp}, FRAME_SIZE, render)[1]
        # an equal pose in a new object is still the same input
        again = KeypointSet(kp.points.copy(), kp.visible.copy(), kp.head_yaw)
        second = reuse.render({1: again}, FRAME_SIZE, render)[1]
        assert render.calls == 1
        assert second is first
        assert same_proxy(second, draw(kp))
        assert not second.raster.flags.writeable

    def test_any_changed_input_renders_again(self):
        kp = stand_pose()
        torsoless = kp.visible.copy()
        torsoless[[5, 6]] = False  # hide the shoulders: torso falls back to the extent
        moved = kp.points.copy()
        moved[9, 0] += 0.25
        flipped = kp.visible.copy()
        flipped[9] = False  # visibility only: the points equal the input before
        inputs = [
            (KeypointSet(kp.points, torsoless, kp.head_yaw), FRAME_SIZE),
            (KeypointSet(moved, kp.visible, kp.head_yaw), FRAME_SIZE),
            (KeypointSet(moved, flipped, kp.head_yaw), FRAME_SIZE),
            (KeypointSet(moved, flipped, None), FRAME_SIZE),
            (KeypointSet(moved, flipped, 0.5), FRAME_SIZE),
            (KeypointSet(moved, flipped, 0.5), (300, 240)),
        ]
        reuse, render = ProxyReuse(), CountingRender()
        reuse.render({1: kp}, FRAME_SIZE, render)
        for n, (pose, size) in enumerate(inputs, start=2):
            proxy = reuse.render({1: pose}, size, render)[1]
            assert render.calls == n
            assert same_proxy(proxy, draw(pose, size))

    def test_departed_subjects_are_dropped(self):
        kp = stand_pose()
        other = stand_pose(x=220.0)
        reuse, render = ProxyReuse(), CountingRender()
        reuse.render({1: kp, 2: other}, FRAME_SIZE, render)
        reuse.render({2: other}, FRAME_SIZE, render)
        assert render.batches == [[1, 2]]
        reuse.render({1: kp, 2: other}, FRAME_SIZE, render)
        assert render.batches == [[1, 2], [1]]

    def test_subjects_do_not_share_entries(self):
        kp = stand_pose()
        other = stand_pose(x=220.0)
        reuse, render = ProxyReuse(), CountingRender()
        drawn = reuse.render({1: kp, 2: other}, FRAME_SIZE, render)
        assert render.calls == 1
        assert same_proxy(drawn[1], draw(kp))
        assert same_proxy(drawn[2], draw(other))

    def test_misses_reach_the_renderer_in_one_call_and_hits_are_not_redrawn(self):
        poses = crowd_poses()
        reuse, render = ProxyReuse(), CountingRender()
        first = reuse.render(poses, FRAME_SIZE, render)
        assert render.batches == [sorted(poses)]
        # two subjects move; the other six hold still
        moved = dict(poses)
        for sid in (11, 14):
            kp = poses[sid]
            moved[sid] = KeypointSet(kp.points + np.float32(1.5), kp.visible, kp.head_yaw)
        second = reuse.render(moved, FRAME_SIZE, render)
        assert render.batches == [sorted(poses), [11, 14]]
        for sid, pose in moved.items():
            if sid in (11, 14):
                assert same_proxy(second[sid], draw(pose))
            else:
                assert second[sid] is first[sid]
        reuse.render(moved, FRAME_SIZE, render)
        assert render.calls == 2

    def test_an_undrawable_miss_is_not_kept_and_is_tried_again(self):
        kp = stand_pose()
        lone = KeypointSet(points=np.full((17, 2), 100.0), visible=np.arange(17) == 0)
        reuse, render = ProxyReuse(), CountingRender()
        for frame in range(3):
            drawn = reuse.render({1: lone, 2: kp}, FRAME_SIZE, render)
            assert sorted(drawn) == [2]
        # subject 2 is drawn once; subject 1 goes to the renderer every frame
        assert render.batches == [[1, 2], [1], [1]]


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
            depth = by_id[sid].predicted_box().bottom
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
