import dataclasses
import importlib
import json
import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxycam.cloud.classify import FALL_VY_FRAC, classify_behavior
from proxycam.cloud.infer import infer
from proxycam.cloud.kinematics import KinematicFeatures, extract_kinematics
from proxycam.cloud.reconstruct import reconstruct
from proxycam.config import RunConfig
from proxycam.edge.pipeline import EdgeParams, EdgeState, process_frame
from proxycam.edge.pose import estimate_pose
from proxycam.errors import ValidationError
from proxycam.geometry import BoundingBox
from proxycam.pngio import decode_png
from proxycam.proxy import (
    FILL_COLOR,
    OUTLINE_COLOR,
    _layout,
    occlusion_order,
    render_proxy,
)
from proxycam.runner import CloudRunner, build_tuple, run_e2e
from proxycam.sim.generate import generate_scene
from proxycam.sim.kinematics import pose_at
from proxycam.sim.spec import load_scene_spec, save_scene_spec
from proxycam.skeleton import (
    L_ANKLE,
    L_HIP,
    L_KNEE,
    L_SHOULDER,
    R_ANKLE,
    R_HIP,
    R_KNEE,
    R_SHOULDER,
    KeypointSet,
)
from proxycam.transport.codec import decode, encode
from proxycam.transport.gate import privacy_gate
from proxycam.transport.model import RepresentationTuple, SyncKey
from proxycam.transport.reorder import ReorderBuffer

from conftest import (
    filtered_png,
    infer_measured,
    inflate_bomb_png,
    keypoint_extent_box,
    measured,
    midpoint,
    on_grid,
    proxies_of,
    records,
    scene,
    solo_actor,
    subjects,
)

# the package re-exports the function `infer` under the module's name
infer_module = importlib.import_module("proxycam.cloud.infer")


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
        feats = extract_kinematics(measured([kp] * 5))
        assert feats.spine_angle_deg == pytest.approx(0.0, abs=1e-3)
        assert feats.hip_vy == pytest.approx(0.0)
        assert feats.hip_vx == pytest.approx(0.0)

    def test_post_fall_pose_is_horizontal(self):
        actor = solo_actor([(0, 5, "stand"), (5, 40, "fall")])
        kp, _ = pose_at(actor, 39)
        feats = extract_kinematics(measured([kp]))
        assert feats.spine_angle_deg == pytest.approx(90.0, abs=1.0)
        assert feats.kp_bbox_aspect < 0.8

    def test_linear_hip_sequence_gives_exact_slope(self):
        poses = []
        for v in (100, 105, 110, 115, 120):
            actor = solo_actor([(0, 10, "stand")], trajectory=((0, 110.0, float(v)),))
            poses.append(pose_at(actor, 0)[0])
        feats = extract_kinematics(measured(poses))
        assert feats.hip_vy == pytest.approx(5.0)

    def test_all_invisible_is_degenerate(self):
        with pytest.raises(ValidationError):
            extract_kinematics(measured([invisible_pose()]))

    def test_empty_history_is_degenerate(self):
        with pytest.raises(ValidationError):
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
        vy = FALL_VY_FRAC * 36.0  # exactly the falling threshold
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
            infer([], [])

    def test_no_subjects_gives_empty_report_with_key(self, empty_scene):
        tuples, _ = run_tuples(empty_scene)
        report = infer_measured(tuples[:3])
        assert report.subjects == ()
        assert report.key == tuples[2].key

    def test_fall_script_transitions_in_order(self, fall_scene):
        tuples, _ = run_tuples(fall_scene)
        labels = []
        for i in range(len(tuples)):
            window = tuples[max(0, i - 4) : i + 1]
            report = infer_measured(window)
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
        report = infer_measured(tuples[-5:])
        assert len(report.subjects) == 2
        by_label = {s.label for s in report.subjects}
        assert by_label == {"standing", "sitting"}

    def test_unordered_window_rejected(self, stand_scene):
        tuples, _ = run_tuples(stand_scene)
        with pytest.raises(ValidationError):
            infer_measured([tuples[3], tuples[1]])


def histories_of(window):
    histories = {}
    for t in window:
        for sid, kp in t.poses:
            histories.setdefault(sid, []).append(kp)
    return histories


def replay_labels(window):
    """Reference labelling: each subject's history is replayed from its
    oldest pose, every prefix classified with the label of the prefix
    before it; a degenerate prefix anywhere makes the subject unknown."""
    histories = histories_of(window)
    out = []
    for sid, kp in sorted(window[-1].poses, key=lambda p: p[0]):
        history = measured(histories[sid])
        try:
            prev = None
            for upto in range(1, len(history) + 1):
                features = extract_kinematics(history[:upto])
                label, conf = classify_behavior(features, prev)
                prev = label
            box = keypoint_extent_box(kp)
        except ValidationError:
            label, conf = "unknown", 0.5
            box = BoundingBox(0.0, 0.0, 0.0, 0.0)
        out.append((sid, label, conf, box))
    return out


def random_pose(rng, like=None):
    """A pose with random joints, or a small jitter of `like`; about one
    joint in ten is invisible."""
    if like is None:
        points = np.empty((17, 2), np.float32)
        points[:, 0] = rng.uniform(0, 320, 17)
        points[:, 1] = rng.uniform(0, 240, 17)
    else:
        points = like.points + rng.normal(0.0, 0.3, (17, 2)).astype(np.float32)
    return KeypointSet(points=points, visible=rng.random(17) >= 0.1)


def invisible_pose():
    return KeypointSet(points=np.zeros((17, 2)), visible=np.zeros(17, dtype=bool))


def window_of(frames):
    """Tuples of camera 0 from per-frame lists of (subject id, pose)."""
    return [
        RepresentationTuple(
            key=SyncKey(0, f, f * 33333),
            env_png=b"",
            poses=poses,
        )
        for f, poses in enumerate(frames)
    ]


def random_window(rng):
    """1-5 frames of up to four subjects, each present on a random subset
    of frames, so subjects enter, leave and come back mid-window."""
    frames = [[] for _ in range(int(rng.integers(1, 6)))]
    for sid in range(int(rng.integers(1, 5))):
        last = None
        for poses in frames:
            if rng.random() < 0.25:
                continue
            if rng.random() < 0.03:
                kp = invisible_pose()
            else:
                kp = random_pose(rng, last if last is not None and rng.random() < 0.7 else None)
                last = kp
            poses.append((sid, kp))
    return window_of(frames)


def as_bits(subjects):
    return [(s, label, struct.pack("<d", conf), box) for s, label, conf, box in subjects]


class TestLazyHysteresis:
    def test_equals_forward_replay(self):
        rng = np.random.default_rng(2026)
        held = early_degenerate = 0
        for _ in range(1500):
            window = random_window(rng)
            expected = replay_labels(window)
            report = infer_measured(window)
            got = [(s.subject_id, s.label, s.confidence, s.box) for s in report.subjects]
            assert as_bits(got) == as_bits(expected)
            histories = histories_of(window)
            for sid, label, _, _ in expected:
                history = histories[sid]
                if not history[-1].visible.any():
                    continue
                if not all(kp.visible.any() for kp in history):
                    early_degenerate += 1
                    continue
                alone, _ = classify_behavior(extract_kinematics(measured(history)), None)
                held += alone == "unknown" and label != "unknown"
        # the comparison must reach the held-label chains and the
        # degenerate pose behind a drawable newest pose
        assert held >= 50
        assert early_degenerate >= 20

    def test_invisible_pose_early_in_the_window_makes_the_subject_unknown(self):
        actor = solo_actor([(0, 10, "stand")])
        kp, _ = pose_at(actor, 0)
        window = window_of([[(3, invisible_pose())]] + [[(3, kp)]] * 4)
        assert replay_labels(window[1:])[0][1] == "standing"
        (subject,) = infer_measured(window).subjects
        assert (subject.label, subject.confidence) == ("unknown", 0.5)
        assert subject.box == BoundingBox(0.0, 0.0, 0.0, 0.0)

    def test_held_label_chain_reaches_back_to_the_oldest_pose(self):
        actor = solo_actor([(0, 5, "stand"), (5, 40, "fall")])
        fallen, _ = pose_at(actor, 39)
        assert classify_behavior(extract_kinematics(measured([fallen])))[0] == "fallen"
        # the same hips with the torso leaning 40 degrees and the knees
        # hidden: no velocity, too upright to be fallen, too leaning to
        # stand, no knees to sit on, so no rule fires
        points, visible = fallen.points.copy(), fallen.visible.copy()
        hip = points[[L_HIP, R_HIP]].mean(axis=0)
        torso = 30.0
        lean = np.radians(40.0)
        top = hip + torso * np.array([np.sin(lean), -np.cos(lean)], np.float32)
        points[L_SHOULDER] = top - (5.0, 0.0)
        points[R_SHOULDER] = top + (5.0, 0.0)
        visible[[L_KNEE, R_KNEE]] = False
        leaning = KeypointSet(points=points, visible=visible)
        assert classify_behavior(extract_kinematics(measured([fallen, leaning])))[0] == "unknown"
        window = window_of([[(1, fallen)]] + [[(1, leaning)]] * 4)
        expected = replay_labels(window)
        assert [(label, conf) for _, label, conf, _ in expected] == [("fallen", 0.5)]
        (subject,) = infer_measured(window).subjects
        assert (subject.label, subject.confidence) == ("fallen", 0.5)

    @pytest.mark.parametrize(
        "action,trajectory,label",
        [
            ("stand", ((0, 110.0, 200.0),), "standing"),
            ("walk", ((0, 80.0, 200.0), (19, 200.0, 200.0)), "walking"),
        ],
    )
    def test_standing_or_walking_costs_one_feature_extraction(
        self, monkeypatch, action, trajectory, label
    ):
        actor = solo_actor([(0, 20, action)], trajectory=trajectory)
        tuples, _ = run_tuples(scene([actor], frame_count=20))
        calls = []

        def counting(history):
            calls.append(len(history))
            return extract_kinematics(history)

        monkeypatch.setattr(infer_module, "extract_kinematics", counting)
        for i in range(4, len(tuples)):
            calls.clear()
            report = infer_measured(tuples[i - 4 : i + 1])
            assert [s.label for s in report.subjects] == [label]
            assert calls == [5]


def support(proxies, frame_size):
    """Pixels of the frame painted by any of the proxies."""
    width, height = frame_size
    painted = reconstruct(np.zeros((height, width, 3), np.uint8), proxies)
    return painted.any(axis=2)


def overlapping_pair_scene():
    """Subject 1 walks in front of subject 2, who stands behind it."""
    near = solo_actor(
        [(0, 30, "walk")], actor_id="near", trajectory=((0, 140.0, 210.0), (29, 150.0, 210.0))
    )
    far = solo_actor(
        [(0, 30, "stand")], actor_id="far", clothing=(40, 40, 200), trajectory=((0, 160.0, 190.0),)
    )
    return scene([near, far], frame_count=30)


class TestReconstruct:
    def test_empty_poses_is_fully_transparent(self):
        env = np.random.default_rng(0).integers(0, 256, (48, 64, 3), dtype=np.uint8)
        proxies = proxies_of([], (64, 48))
        assert proxies == []
        assert np.array_equal(reconstruct(env, proxies), env)

    def test_transparent_canvas_reconstructs_identity(self):
        env = np.random.default_rng(0).integers(0, 256, (48, 64, 3), dtype=np.uint8)
        out = reconstruct(env, [])
        assert np.array_equal(out, env)
        assert out is not env

    def test_cloud_render_matches_edge_composite(self, fall_scene):
        # the pair overlaps and paints subject 2 first, so a cloud that
        # painted in subject-id order would differ from the composite
        for spec, order in ((fall_scene, (1,)), (overlapping_pair_scene(), (2, 1))):
            frames, gts = generate_scene(spec)
            state = EdgeState(spec.width, spec.height)
            for i, (frame, gt) in enumerate(zip(frames, gts)):
                out = process_frame(state, frame, gt)
                assert tuple(occlusion_order(records(dict(out.poses)))) == order
                t = build_tuple(out, 0, i, i * 33333)
                proxies = proxies_of(t.poses, (spec.width, spec.height))
                recon = reconstruct(decode_png(t.env_png), proxies)
                assert np.array_equal(recon, out.composite)

    def test_reconstruction_palette_inside_alpha(self, stand_scene):
        tuples, _ = run_tuples(stand_scene)
        t = tuples[-1]
        proxies = proxies_of(t.poses, (320, 240))
        recon = reconstruct(decode_png(t.env_png), proxies)
        opaque = support(proxies, (320, 240))
        colors = {tuple(c) for c in np.unique(recon[opaque], axis=0)}
        assert colors == {FILL_COLOR, OUTLINE_COLOR}

    def test_reconstruction_locality_outside_alpha(self, stand_scene):
        tuples, _ = run_tuples(stand_scene)
        t = tuples[-1]
        env = decode_png(t.env_png)
        proxies = proxies_of(t.poses, (320, 240))
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
        a, b = proxies_of([(1, kp_a), (2, kp_b)], (320, 240))
        overlap = support([a], (320, 240)) & support([b], (320, 240))
        assert overlap.any()
        for back, front in ((a, b), (b, a)):
            recon = reconstruct(env, [back, front])
            alone = reconstruct(env, [front])
            assert np.array_equal(recon[overlap], alone[overlap])
        assert np.any(reconstruct(env, [a, b]) != reconstruct(env, [b, a]))

    def test_proxies_come_in_occlusion_order_of_the_drawn_poses(self):
        # listed front to back, with an undrawable pose whose one visible
        # joint lies lowest of all: it is left out, and the rest are drawn
        # back to front by their ankle rows
        def standing_at(x, y):
            actor = solo_actor([(0, 2, "stand")], trajectory=((0, x, y),))
            return pose_at(actor, 0)[0]

        near, far = standing_at(160.0, 220.0), standing_at(150.0, 150.0)
        lone = KeypointSet(points=np.zeros((17, 2)), visible=np.arange(17) == L_ANKLE)
        lone.points[L_ANKLE] = (100.0, 239.0)
        poses = [(1, near), (2, lone), (3, far)]
        proxies = proxies_of(poses, (320, 240))
        drawn = render_proxy(subjects({3: far, 1: near}), (320, 240))
        expected = [drawn[3], drawn[1]]
        assert [p.anchor for p in proxies] == [p.anchor for p in expected]
        for got, want in zip(proxies, expected):
            assert np.array_equal(got.codes, want.codes)

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
            proxies = proxies_of(t.poses, (spec.width, spec.height))
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

    def test_hidden_ankles_in_noisy_traffic_reconstruct_equal(self):
        # the demo scene with pose noise: at frame 96 the noise pushes both
        # ankles of subject 3 out of its box, so the order falls back to
        # its lowest visible joint, on the edge and in the cloud alike
        spec = load_scene_spec(Path(__file__).parent.parent / "scenes" / "demo.json")
        frames, gts = generate_scene(spec)
        state = EdgeState(spec.width, spec.height, EdgeParams(noise_sigma=2.0), seed=7)
        for i, (frame, gt) in enumerate(zip(frames[:97], gts[:97])):
            out = process_frame(state, frame, gt)
            t = decode(encode(build_tuple(out, 0, i, i * 33333)))
            proxies = proxies_of(t.poses, (spec.width, spec.height))
            recon = reconstruct(decode_png(t.env_png), proxies)
            assert np.array_equal(recon, out.composite), i
        hidden = [sid for sid, kp in out.poses if midpoint(kp, L_ANKLE, R_ANKLE) is None]
        assert hidden == [3]
        assert occlusion_order(records(dict(out.poses))) == [1, 3, 2]


def ankles_at(x, y=20.0):
    """Both ankles visible at one point, every other joint hidden: the
    proxy's margin is 0.75 + 2 + 2 = 4.75 px around that point."""
    points = np.zeros((17, 2), np.float32)
    points[[L_ANKLE, R_ANKLE]] = (x, y)
    return KeypointSet(points=points, visible=np.isin(np.arange(17), [L_ANKLE, R_ANKLE]))


# where a pose's joints lie along one axis of a frame of size n: inside
# the closed frame [0, n], straddling an edge, or past it by less or by
# more than the least margin of a proxy's patch (4.75 px)
SPANS = (
    lambda n: (0.0, float(n)),
    lambda n: (-6.0, n + 6.0),
    lambda n: (-4.75, 0.0),
    lambda n: (float(n), n + 4.75),
    lambda n: (-30.0, -4.75),
    lambda n: (n + 4.75, n + 30.0),
)
TORSO = [L_SHOULDER, R_SHOULDER, L_HIP, R_HIP]


@st.composite
def undrawable_or_not(draw):
    """A pose inside, across or past the edges of a frame down to 1x1:
    0 to 17 visible joints, the torso often hidden, coordinates at the
    ends of their span and at +-0.0, and patches clipped to nothing."""
    width, height = draw(st.integers(1, 64)), draw(st.integers(1, 48))

    def coordinate(n):
        # inside on more than half the axes, so about one pose in five
        # lies in the closed frame, where the edge's rule applies
        lo, hi = draw(st.just(SPANS[0]) | st.sampled_from(SPANS))(n)
        return st.sampled_from([lo, hi, 0.0, -0.0]) | st.floats(lo, hi, width=32)

    xs, ys = coordinate(width), coordinate(height)
    points = np.array([(draw(xs), draw(ys)) for _ in range(17)], np.float32)
    shown = draw(st.sets(st.integers(0, 16), max_size=17))
    if draw(st.booleans()):
        shown -= set(TORSO)
    visible = np.isin(np.arange(17), sorted(shown))
    yaw = draw(st.none() | st.floats(-math.pi, math.pi))
    return KeypointSet(points=points, visible=visible, head_yaw=yaw), (width, height)


def in_closed_frame(points, frame_size):
    width, height = frame_size
    u, v = points[:, 0], points[:, 1]
    return bool(np.all((u >= 0) & (u <= width) & (v >= 0) & (v <= height)))


class GroundTruthActor:
    """What `estimate_pose` reads of a ground-truth actor."""

    def __init__(self, keypoints):
        self.keypoints = keypoints


@st.composite
def estimated_poses(draw):
    """A frame, a box inside its closed extent, and an actor whose joints
    lie in, on or past the box, for `estimate_pose` with pose noise."""
    width, height = draw(st.integers(1, 400)), draw(st.integers(1, 300))

    def corner(n):
        return st.sampled_from([0.0, float(n)]) | st.floats(0.0, float(n))

    x0, x1 = sorted((draw(corner(width)), draw(corner(width))))
    y0, y1 = sorted((draw(corner(height)), draw(corner(height))))
    box = BoundingBox(x0, y0, x1 - x0, y1 - y0)
    coords = st.floats(-40.0, 440.0, width=32)
    points = np.array([(draw(coords), draw(coords)) for _ in range(17)], np.float32)
    visible = np.isin(np.arange(17), sorted(draw(st.sets(st.integers(0, 16), max_size=17))))
    actor = GroundTruthActor(KeypointSet(points, visible, draw(st.none() | st.just(0.5))))
    noise = draw(st.sampled_from([0.0, 0.5, 2.0, 8.0]))
    return actor, box, noise, draw(st.integers(0, 2**32 - 1)), (width, height)


class TestUndrawablePose:
    FRAME = (320, 240)

    def packet(self, frame_id, pose):
        class Output:
            desensitized = np.full((240, 320, 3), 90, np.uint8)
            poses = ((1, pose),)

        t = build_tuple(Output, 0, frame_id, frame_id * 33_333)
        privacy_gate(t, self.FRAME)  # raises unless the edge would send it
        return encode(t)

    def test_undrawable_pose_draws_nothing_and_the_stream_goes_on(self, tmp_path):
        # one visible joint: nothing to draw
        lone = KeypointSet(points=np.full((17, 2), 100.0), visible=np.arange(17) == 0)
        normal = on_grid(pose_at(solo_actor([(0, 2, "stand")]), 0)[0])
        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        # frame 1 waits for frame 0, so one accept releases both
        cloud.feed(self.packet(1, normal))
        cloud.feed(self.packet(0, lone))
        cloud.finish()
        assert sorted(cloud.reports) == [(0, 0), (0, 1)]
        assert cloud.recon_files == ["cam0_frame0.png", "cam0_frame1.png"]
        env = np.full((240, 320, 3), 90, np.uint8)
        recons = [decode_png((tmp_path / name).read_bytes()) for name in cloud.recon_files]
        assert np.array_equal(recons[0], env)
        normal_proxy = render_proxy(subjects({1: normal}), self.FRAME)[1]
        assert np.array_equal(recons[1], reconstruct(env, [normal_proxy]))

    def test_clip_box_of_zero_width_at_the_frame_edge_is_undrawable(self):
        # a quarter pixel inward, the patch is one pixel wide and drawn
        size = (64, 48)
        for x, drawable in ((64 + 4.75, False), (64 + 4.5, True), (-4.75, False), (-4.5, True)):
            (record,) = measured([ankles_at(x)])
            assert (_layout(record, size) is not None) is drawable, x
            assert (1 in render_proxy(subjects({1: ankles_at(x)}), size)) is drawable, x

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(case=undrawable_or_not())
    @example(case=(ankles_at(64 + 4.75), (64, 48)))  # zero width at the right edge
    @example(case=(ankles_at(-4.75), (64, 48)))  # zero width at the left edge
    @example(case=(ankles_at(-0.0, 0.0), (1, 1)))  # inside a 1x1 frame
    @example(case=(ankles_at(64.0), (64, 48)))  # on the far edge of the closed frame
    @example(case=(ankles_at(64.0, 48.0), (64, 48)))  # on the far corner
    @example(case=(ankles_at(200.0, 300.0), (64, 48)))  # entirely off the frame
    @example(
        # one visible joint, inside the frame
        case=(KeypointSet(np.full((17, 2), 20.0, np.float32), np.arange(17) == 0), (64, 48))
    )
    def test_edge_verdict_equals_the_renderer_verdict(self, case):
        # the layout gives None exactly when no proxy is drawn; and inside
        # the closed frame, where every edge pose lies, a pose is drawn if
        # and only if it shows two joints, which is the edge's rule
        pose, size = case
        (record,) = measured([pose])
        drawn = 1 in render_proxy({1: (pose, record)}, size)
        assert drawn == (_layout(record, size) is not None)
        if in_closed_frame(pose.points[pose.visible], size):
            assert drawn == (np.count_nonzero(pose.visible) >= 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=estimated_poses())
    def test_an_estimated_pose_lies_in_the_frame_and_is_drawn_iff_it_shows_two_joints(self, case):
        actor, box, noise, seed, size = case
        pose = estimate_pose(actor, box, noise_sigma=noise, rng=np.random.default_rng(seed))
        assert in_closed_frame(pose.points, size)
        drawn = 1 in render_proxy(subjects({1: pose}), size)
        assert drawn == (np.count_nonzero(pose.visible) >= 2)


class SteppingClock:
    """A clock that jumps `step` seconds every time it is read."""

    def __init__(self, step: float):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestReorderedStream:
    def test_stalled_clock_loses_no_frame(self, tmp_path, monkeypatch):
        # a reorder rule that read the wall clock would declare every hole a
        # gap here, then count its late packet as a duplicate
        import proxycam.runner as runner_module

        actor = solo_actor(
            [(0, 40, "walk")], height_px=70, trajectory=((0, 30.0, 100.0), (39, 130.0, 100.0))
        )
        tuples, _ = run_tuples(scene([actor], frame_count=40, width=160, height=120))
        packets = [encode(t) for t in tuples]
        rng = np.random.default_rng(5)
        shuffled = [packets[i] for i in np.argsort(np.arange(40) + rng.uniform(0, 4, 40))]
        assert shuffled != packets

        def buffer_with_stepping_clock(*args, **kwargs):
            buffer = ReorderBuffer(*args, **kwargs)
            buffer.clock = SteppingClock(2.5)
            return buffer

        in_order = CloudRunner(config=RunConfig(), out_dir=tmp_path / "a")
        stalled = CloudRunner(config=RunConfig(), out_dir=tmp_path / "b")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for packet in packets:
            in_order.feed(packet)
        in_order.finish()
        monkeypatch.setattr(runner_module, "ReorderBuffer", buffer_with_stepping_clock)
        for packet in shuffled:
            stalled.feed(packet)
        stalled.finish()

        assert stalled.events == []
        assert sorted(stalled.reports) == [(0, i) for i in range(40)]
        assert stalled.report_records() == in_order.report_records()
        for name in in_order.recon_files:
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def replay(packets, out_dir):
    """A `CloudRunner` that took `packets` in order, writing to `out_dir`."""
    out_dir.mkdir()
    cloud = CloudRunner(config=RunConfig(), out_dir=out_dir)
    for packet in packets:
        cloud.feed(packet)
    cloud.finish()
    return cloud


class TestMalformedEnvImage:

    def test_env_outside_the_dialect_is_counted_and_the_stream_goes_on(self, tmp_path):
        actor = solo_actor(
            [(0, 16, "walk")], height_px=70, trajectory=((0, 30.0, 100.0), (15, 110.0, 100.0))
        )
        tuples, _ = run_tuples(scene([actor], frame_count=16, width=160, height=120))
        env = decode_png(tuples[0].env_png)
        # each packet is CRC-valid; only its env image is outside the dialect
        bad_env = {
            3: b"not a png",
            6: filtered_png(env, 1),
            9: filtered_png(np.dstack([env, np.full(env.shape[:2], 255, np.uint8)]), 0),
            12: inflate_bomb_png(),
        }
        mixed = [
            encode(dataclasses.replace(t, env_png=bad_env.get(i, t.env_png)))
            for i, t in enumerate(tuples)
        ]
        good = [encode(t) for i, t in enumerate(tuples) if i not in bad_env]

        cloud = replay(mixed, tmp_path / "mixed")
        left_out = replay(good, tmp_path / "good")

        good_ids = [i for i in range(16) if i not in bad_env]
        assert cloud.malformed == 4
        assert cloud.events == []
        assert sorted(cloud.reports) == [(0, i) for i in good_ids]
        assert cloud.report_records() == left_out.report_records()
        assert cloud.recon_files == left_out.recon_files == [f"cam0_frame{i}.png" for i in good_ids]
        assert sorted(p.name for p in (tmp_path / "mixed").iterdir()) == sorted(cloud.recon_files)
        for name in cloud.recon_files:
            assert (tmp_path / "mixed" / name).read_bytes() == (tmp_path / "good" / name).read_bytes()

    def test_env_of_another_size_is_refused_before_it_inflates(self, tmp_path):
        # frame 0 pins the camera at 160x120; frame 1's 51 KB env image
        # declares 20000x20000 and would inflate 50 MB before its length is
        # found wrong
        actor = solo_actor([(0, 3, "stand")], height_px=70, trajectory=((0, 70.0, 100.0),))
        tuples, _ = run_tuples(scene([actor], frame_count=3, width=160, height=120))
        huge = inflate_bomb_png(20000, 20000)
        assert len(huge) < 64_000
        packets = [encode(t) for t in tuples]
        packets[1] = encode(dataclasses.replace(tuples[1], env_png=huge))

        cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
        cloud.feed(packets[0])
        tracemalloc.start()
        try:
            cloud.feed(packets[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cloud.feed(packets[2])
        cloud.finish()
        assert peak < 2_000_000
        assert cloud.malformed == 1
        assert sorted(cloud.reports) == [(0, 0), (0, 2)]


def with_yaw_bits(packet, bits):
    """A CRC-valid copy of `packet` whose first pose carries a head yaw of
    the f32 bits `bits`; `encode` refuses a yaw that is not finite, so the
    bytes are written in place."""
    (env_len,) = struct.unpack_from("<I", packet, 26)
    flags_at = 26 + 4 + env_len + 2 + 4  # the flags word follows subject_id
    body = bytearray(packet[:-4])
    (flags,) = struct.unpack_from("<I", body, flags_at)
    struct.pack_into("<II", body, flags_at, flags | 1 << 17, bits)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestExtremeKeypoints:
    """The wire carries a joint coordinate as a u16 count of 1/16 px, so the
    head yaw is the only float of a pose that a packet can make extreme."""

    def test_encode_refuses_a_joint_off_the_wire_grid(self):
        actor = solo_actor([(0, 1, "stand")])
        truth, _ = pose_at(actor, 0)
        kp = on_grid(truth)
        cases = ((0.0, True), (4095.9375, True), (100.03125, False), (4096.0, False),
                 (-0.0625, False), (2.0**24, False))
        for value, ok in cases:
            points = kp.points.copy()
            points[3, 1] = value
            t = window_of([[(1, KeypointSet(points, kp.visible))]])[0]
            if ok:
                assert decode(encode(t)).poses[0][1] == t.poses[0][1]
            else:
                with pytest.raises(ValidationError, match="1/16 px grid"):
                    encode(t)
        with pytest.raises(ValidationError, match="1/16 px grid"):
            encode(window_of([[(1, truth)]])[0])

    def test_a_packet_with_a_non_finite_yaw_is_counted_and_skipped(self, tmp_path):
        actor = solo_actor(
            [(0, 16, "walk")], height_px=70, trajectory=((0, 30.0, 100.0), (15, 110.0, 100.0))
        )
        tuples, _ = run_tuples(scene([actor], frame_count=16, width=160, height=120))
        packets = [encode(t) for t in tuples]
        assert tuples[5].poses
        extreme = packets[:5] + [with_yaw_bits(packets[5], 0x7F800000)] + packets[6:]  # +inf

        cloud = replay(extreme, tmp_path / "extreme")
        left_out = replay(packets[:5] + packets[6:], tmp_path / "deleted")

        assert cloud.malformed == 1
        assert (0, 5) not in cloud.reports
        assert cloud.report_records() == left_out.report_records()
        assert cloud.recon_files == left_out.recon_files
        assert sorted(p.name for p in (tmp_path / "extreme").iterdir()) == sorted(cloud.recon_files)
        for name in cloud.recon_files:
            assert (tmp_path / "extreme" / name).read_bytes() == (
                tmp_path / "deleted" / name
            ).read_bytes()
        cloud.write_reports(tmp_path / "reports.jsonl")
        lines = (tmp_path / "reports.jsonl").read_text().splitlines()
        assert len(lines) == 15
        for line in lines:
            json.loads(line, parse_constant=refuse_constant)
