import numpy as np
import pytest

from proxycam.cloud.classify import ClassifierParams, classify_behavior
from proxycam.cloud.infer import infer
from proxycam.cloud.kinematics import KinematicFeatures, extract_kinematics
from proxycam.cloud.reconstruct import reconstruct, render_proxies
from proxycam.config import RunConfig
from proxycam.edge.pipeline import EdgeState, process_frame
from proxycam.errors import DegenerateSubjectError, ValidationError
from proxycam.pngio import decode_png
from proxycam.proxy import FILL_COLOR, OUTLINE_COLOR, render_proxy
from proxycam.runner import CloudRunner, build_tuple, run_e2e
from proxycam.sim.generate import generate_scene
from proxycam.sim.kinematics import pose_at
from proxycam.sim.spec import save_scene_spec
from proxycam.skeleton import KeypointSet
from proxycam.transport.codec import decode, encode
from proxycam.transport.gate import privacy_gate

from conftest import scene, solo_actor


def run_tuples(spec):
    frames, gts = generate_scene(spec)
    state = EdgeState(spec.width, spec.height)
    tuples = []
    for i, (frame, gt) in enumerate(zip(frames, gts)):
        out = process_frame(state, frame, gt)
        tuples.append(build_tuple(out, 0, i, i * 33333))
    return tuples, gts


class TestExtractKinematics:
    def test_static_stand_pose(self):
        actor = solo_actor([(0, 10, "stand")])
        kp, _ = pose_at(actor, 0)
        feats = extract_kinematics([kp] * 5)
        assert feats.spine_angle_deg == pytest.approx(0.0, abs=1e-3)
        assert feats.hip_vy == pytest.approx(0.0)
        assert feats.hip_vx == pytest.approx(0.0)

    def test_post_fall_pose_is_horizontal(self):
        actor = solo_actor([(0, 5, "stand"), (5, 40, "fall")])
        kp, _ = pose_at(actor, 39)
        feats = extract_kinematics([kp])
        assert feats.spine_angle_deg == pytest.approx(90.0, abs=1.0)
        assert feats.kp_bbox_aspect < 0.8

    def test_linear_hip_sequence_gives_exact_slope(self):
        poses = []
        for v in (100, 105, 110, 115, 120):
            actor = solo_actor([(0, 10, "stand")], trajectory=((0, 110.0, float(v)),))
            poses.append(pose_at(actor, 0)[0])
        feats = extract_kinematics(poses)
        assert feats.hip_vy == pytest.approx(5.0)

    def test_all_invisible_is_degenerate(self):
        joints = np.zeros((17, 3), dtype=np.float32)
        with pytest.raises(DegenerateSubjectError):
            extract_kinematics([KeypointSet(joints=joints)])

    def test_empty_history_is_degenerate(self):
        with pytest.raises(DegenerateSubjectError):
            extract_kinematics([])


def feats(spine=0.0, vx=0.0, vy=0.0, knee_v=172.0, hip_v=148.0, aspect=3.5, torso=36.0):
    return KinematicFeatures(
        spine_angle_deg=spine,
        hip_mid=(110.0, hip_v),
        hip_vx=vx,
        hip_vy=vy,
        knee_mid_v=knee_v,
        kp_bbox_aspect=aspect,
        torso_len=torso,
    )


class TestClassifyBehavior:
    def test_canonical_stand_is_confident(self):
        label, conf = classify_behavior(feats())
        assert label == "standing"
        assert conf > 0.9

    def test_horizontal_low_aspect_is_fallen(self):
        label, conf = classify_behavior(feats(spine=90.0, aspect=0.3))
        assert label == "fallen"
        assert conf > 0.9

    def test_exactly_at_threshold_confidence_half(self):
        params = ClassifierParams()
        vy = params.fall_vy_frac * 36.0  # exactly the falling threshold
        label, conf = classify_behavior(feats(vy=vy))
        assert label == "falling"
        assert conf == pytest.approx(0.5)

    def test_fast_descent_is_falling(self):
        label, conf = classify_behavior(feats(vy=4.0))
        assert label == "falling"
        assert conf > 0.5

    def test_hip_at_knee_height_is_sitting(self):
        label, _ = classify_behavior(feats(hip_v=172.0, knee_v=172.0))
        assert label == "sitting"

    def test_horizontal_speed_is_walking(self):
        label, _ = classify_behavior(feats(vx=2.0))
        assert label == "walking"

    def test_nothing_fires_holds_previous(self):
        ambiguous = feats(spine=40.0, aspect=2.0)
        label, conf = classify_behavior(ambiguous, prev_label="sitting")
        assert (label, conf) == ("sitting", 0.5)
        label, conf = classify_behavior(ambiguous, prev_label=None)
        assert (label, conf) == ("unknown", 0.5)

    def test_label_set_closure_and_confidence_range(self):
        from proxycam.cloud.classify import LABELS

        rng = np.random.default_rng(17)
        for _ in range(500):
            label, conf = classify_behavior(
                feats(
                    spine=float(rng.uniform(0, 120)),
                    vx=float(rng.uniform(-6, 6)),
                    vy=float(rng.uniform(-6, 6)),
                    knee_v=float(rng.uniform(100, 220)),
                    hip_v=float(rng.uniform(100, 220)),
                    aspect=float(rng.uniform(0.1, 5.0)),
                    torso=float(rng.uniform(10, 60)),
                ),
                prev_label=None,
            )
            assert label in LABELS
            assert 0.0 <= conf <= 1.0


class TestInfer:
    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            infer([])

    def test_no_subjects_gives_empty_report_with_key(self, empty_scene):
        tuples, _ = run_tuples(empty_scene)
        report = infer(tuples[:3])
        assert report.subjects == ()
        assert report.key == tuples[2].key

    def test_fall_script_transitions_in_order(self, fall_scene):
        tuples, _ = run_tuples(fall_scene)
        labels = []
        for i in range(len(tuples)):
            window = tuples[max(0, i - 4) : i + 1]
            report = infer(window)
            labels.append(report.subjects[0].label)
        # compare against the script outside the +-5 frame transition zone
        # around the phase boundary at frame 40 (and scene start)
        boundaries = (0, 40)
        scored = [
            lab
            for f, lab in enumerate(labels)
            if all(abs(f - b) > 5 for b in boundaries)
        ]
        collapsed = [scored[0]]
        for lab in scored[1:]:
            if lab != collapsed[-1]:
                collapsed.append(lab)
        assert collapsed == ["standing", "falling", "fallen"]

    def test_two_subjects_distinct_labels(self):
        actors = [
            solo_actor([(0, 60, "stand")], actor_id="s", trajectory=((0, 70.0, 200.0),)),
            solo_actor(
                [(0, 60, "sit")],
                actor_id="t",
                clothing=(40, 60, 200),
                trajectory=((0, 200.0, 200.0),),
            ),
        ]
        tuples, gts = run_tuples(scene(actors, frame_count=60))
        report = infer(tuples[-5:])
        assert len(report.subjects) == 2
        by_label = {s.label for s in report.subjects}
        assert by_label == {"standing", "sitting"}

    def test_unordered_window_rejected(self, stand_scene):
        tuples, _ = run_tuples(stand_scene)
        with pytest.raises(ValidationError):
            infer([tuples[3], tuples[1]])


def support(proxies, frame_size):
    """Pixels of the frame painted by any of the proxies."""
    width, height = frame_size
    painted = reconstruct(np.zeros((height, width, 3), np.uint8), proxies)
    return painted.any(axis=2)


class TestReconstruct:
    def test_empty_poses_is_fully_transparent(self):
        env = np.random.default_rng(0).integers(0, 256, (48, 64, 3), dtype=np.uint8)
        proxies = render_proxies([], [], (64, 48))
        assert proxies == []
        assert np.array_equal(reconstruct(env, proxies), env)

    def test_transparent_canvas_reconstructs_identity(self):
        env = np.random.default_rng(0).integers(0, 256, (48, 64, 3), dtype=np.uint8)
        out = reconstruct(env, [])
        assert np.array_equal(out, env)
        assert out is not env

    def test_cloud_render_matches_edge_composite(self, fall_scene):
        tuples, _ = run_tuples(fall_scene)
        frames, gts = generate_scene(fall_scene)
        state = EdgeState(fall_scene.width, fall_scene.height)
        for i, (frame, gt) in enumerate(zip(frames, gts)):
            out = process_frame(state, frame, gt)
            t = tuples[i]
            proxies = render_proxies(
                t.poses, t.order, (fall_scene.width, fall_scene.height)
            )
            recon = reconstruct(decode_png(t.env_png), proxies)
            assert np.array_equal(recon, out.composite)

    def test_reconstruction_palette_inside_alpha(self, stand_scene):
        tuples, _ = run_tuples(stand_scene)
        t = tuples[-1]
        proxies = render_proxies(t.poses, t.order, (320, 240))
        recon = reconstruct(decode_png(t.env_png), proxies)
        opaque = support(proxies, (320, 240))
        colors = {tuple(c) for c in np.unique(recon[opaque], axis=0)}
        assert colors == {FILL_COLOR, OUTLINE_COLOR}

    def test_reconstruction_locality_outside_alpha(self, stand_scene):
        tuples, _ = run_tuples(stand_scene)
        t = tuples[-1]
        env = decode_png(t.env_png)
        proxies = render_proxies(t.poses, t.order, (320, 240))
        recon = reconstruct(env, proxies)
        outside = ~support(proxies, (320, 240))
        assert np.array_equal(recon[outside], env[outside])

    def test_overlap_belongs_to_later_subject(self):
        # two identical poses shifted so silhouettes overlap
        actor_a = solo_actor([(0, 2, "stand")], trajectory=((0, 100.0, 200.0),))
        actor_b = solo_actor([(0, 2, "stand")], trajectory=((0, 118.0, 206.0),))
        kp_a, _ = pose_at(actor_a, 0)
        kp_b, _ = pose_at(actor_b, 0)
        env = np.zeros((240, 320, 3), np.uint8)
        first = render_proxies([(1, kp_a), (2, kp_b)], [1, 2], (320, 240))
        second = render_proxies([(1, kp_a), (2, kp_b)], [2, 1], (320, 240))
        overlap = support(first[:1], (320, 240)) & support(first[1:], (320, 240))
        assert overlap.any()
        assert np.any(reconstruct(env, first) != reconstruct(env, second))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            reconstruct(np.zeros((48, 64), dtype=np.uint8), [])


def tall_actor_scene():
    """The actor's shoulders sit above the top edge of the frame, so the
    renderer falls back from the torso length to the keypoint extent."""
    actor = solo_actor(
        [(0, 80, "walk")], height_px=200, trajectory=((0, 160.0, 150.0), (79, 200.0, 150.0))
    )
    return scene([actor], frame_count=80)


class TestRenderEquivalence:
    def test_tall_actor_reconstruction_equals_edge_composite(self):
        spec = tall_actor_scene()
        frames, gts = generate_scene(spec)
        state = EdgeState(spec.width, spec.height)
        mismatches = drawn = 0
        for i, (frame, gt) in enumerate(zip(frames, gts)):
            out = process_frame(state, frame, gt)
            t = decode(encode(build_tuple(out, 0, i, i * 33333)))
            drawn += len(t.poses)
            proxies = render_proxies(t.poses, t.order, (spec.width, spec.height))
            recon = reconstruct(decode_png(t.env_png), proxies)
            mismatches += not np.array_equal(recon, out.composite)
        assert drawn == len(frames)
        assert mismatches == 0

    def test_tall_actor_e2e_has_no_render_mismatches(self, tmp_path):
        save_scene_spec(tall_actor_scene(), tmp_path / "tall.json")
        config = RunConfig(scene=str(tmp_path / "tall.json"), out_dir=str(tmp_path / "out"))
        summary = run_e2e(config)
        assert summary["reports"] == 80
        assert summary["render_mismatches"] == 0


class TestUndrawablePose:
    FRAME = (320, 240)

    def packet(self, frame_id, pose):
        class Output:
            desensitized = np.full((240, 320, 3), 90, np.uint8)
            poses = ((1, pose),)
            order = (1,)
            embedding = np.zeros(64, np.float32)

        t = build_tuple(Output, 0, frame_id, frame_id * 33_333)
        assert privacy_gate(t, self.FRAME).ok
        return encode(t)

    def test_undrawable_pose_draws_nothing_and_the_stream_goes_on(self, tmp_path):
        lone = np.zeros((17, 3), dtype=np.float32)
        lone[0] = (100.0, 100.0, 1.0)  # one visible joint: nothing to draw
        normal, _ = pose_at(solo_actor([(0, 2, "stand")]), 0)
        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        # frame 1 waits for frame 0, so one accept releases both
        cloud.feed(self.packet(1, normal))
        cloud.feed(self.packet(0, KeypointSet(joints=lone)))
        cloud.finish()
        assert sorted(cloud.reports) == [(0, 0), (0, 1)]
        assert cloud.recon_files == ["cam0_frame0.png", "cam0_frame1.png"]
        env = np.full((240, 320, 3), 90, np.uint8)
        recons = [decode_png((tmp_path / name).read_bytes()) for name in cloud.recon_files]
        assert np.array_equal(recons[0], env)
        assert np.array_equal(recons[1], reconstruct(env, [render_proxy(normal, self.FRAME)]))
