import math

import numpy as np
import pytest

from proxycam.errors import ValidationError
from proxycam.sim.generate import generate_scene, ground_truth_records, mask_from_rle
from proxycam.sim.kinematics import pose_at
from proxycam.sim.spec import (
    SceneSpec,
    scene_spec_from_dict,
    scene_spec_to_dict,
    validate_scene_spec,
)
from proxycam.skeleton import L_KNEE, R_KNEE

from conftest import joint_mask_of, scene, solo_actor


def spine_angle_deg(kp):
    v = kp.shoulder_mid() - kp.hip_mid()
    return math.degrees(math.atan2(abs(float(v[0])), -float(v[1])))


class TestGenerateScene:
    def test_empty_scene_is_pure_background(self, empty_scene):
        frames, gts = generate_scene(empty_scene)
        assert len(frames) == 5
        for frame, gt in zip(frames, gts):
            assert np.array_equal(frame, gt.background)
            assert gt.actors == ()

    def test_determinism_byte_identical(self, fall_scene):
        frames_a, _ = generate_scene(fall_scene)
        frames_b, _ = generate_scene(fall_scene)
        assert all(np.array_equal(a, b) for a, b in zip(frames_a, frames_b))

    def test_fall_drops_hip_by_a_third_of_height(self):
        # expected drop derived from the scripted kinematics themselves
        spec = scene(
            [solo_actor([(0, 40, "stand"), (40, 61, "fall")], height_px=120)],
            frame_count=61,
        )
        _, gts = generate_scene(spec)
        hip_y = {
            f: float(gts[f].actors[0].keypoints.hip_mid()[1]) for f in (40, 60)
        }
        assert hip_y[60] - hip_y[40] > 0.3 * 120

    def test_mask_fidelity_masked_pixels_differ_from_background(self, fall_scene):
        frames, gts = generate_scene(fall_scene)
        for f in (0, 30, 50, 60):
            actor = gts[f].actors[0]
            rendered = frames[f][actor.mask]
            clean = gts[f].background[actor.mask]
            assert np.all(np.any(rendered != clean, axis=1))

    def test_keypoints_inside_box(self, fall_scene):
        _, gts = generate_scene(fall_scene)
        for gt in gts:
            for actor in gt.actors:
                vis = actor.keypoints.visible_points()
                assert np.all(vis[:, 0] >= actor.box.x - 2)
                assert np.all(vis[:, 0] <= actor.box.x2 + 2)
                assert np.all(vis[:, 1] >= actor.box.y - 2)
                assert np.all(vis[:, 1] <= actor.box.y2 + 2)

    def test_joint_mask_is_the_union_of_actor_masks(self, empty_scene):
        two = scene(
            [
                solo_actor([(0, 3, "stand")]),
                solo_actor(
                    [(0, 3, "walk")], actor_id="a1", clothing=(40, 40, 200),
                    trajectory=((0, 150.0, 200.0),),
                ),
            ],
            frame_count=3,
        )
        for spec in (empty_scene, two):
            _, gts = generate_scene(spec)
            for gt in gts:
                assert np.array_equal(gt.joint_mask(), joint_mask_of(gt))
        assert gts[0].joint_mask().sum() > gts[0].actors[0].mask.sum()

    def test_masks_inside_frame_and_boxes(self, fall_scene):
        frames, gts = generate_scene(fall_scene)
        for gt in gts:
            for actor in gt.actors:
                ys, xs = np.nonzero(actor.mask)
                assert xs.min() >= actor.box.x and xs.max() < actor.box.x2
                assert ys.min() >= actor.box.y and ys.max() < actor.box.y2


class TestSpecValidation:
    def test_too_small_canvas_rejected(self):
        with pytest.raises(ValidationError, match="width/height"):
            validate_scene_spec(SceneSpec(width=32, height=240, frame_count=1))

    def test_action_gap_rejected(self):
        actor = solo_actor([(0, 10, "stand"), (12, 20, "walk")])
        with pytest.raises(ValidationError, match="tile"):
            validate_scene_spec(scene([actor], frame_count=20))

    def test_unknown_action_rejected(self):
        actor = solo_actor([(0, 20, "moonwalk")])
        with pytest.raises(ValidationError, match="moonwalk"):
            validate_scene_spec(scene([actor], frame_count=20))

    def test_duplicate_actor_ids_rejected(self):
        actors = [solo_actor([(0, 5, "stand")]), solo_actor([(0, 5, "stand")])]
        with pytest.raises(ValidationError, match="distinct"):
            validate_scene_spec(scene(actors, frame_count=5))

    def test_out_of_frame_trajectory_rejected(self):
        actor = solo_actor([(0, 5, "stand")], trajectory=((0, 500.0, 200.0),))
        with pytest.raises(ValidationError, match="outside"):
            validate_scene_spec(scene([actor], frame_count=5))

    def test_json_round_trip(self, fall_scene):
        assert scene_spec_from_dict(scene_spec_to_dict(fall_scene)) == fall_scene


class TestPoseAt:
    def test_stand_spine_vertical(self):
        actor = solo_actor([(0, 20, "stand")])
        kp, _ = pose_at(actor, 7)
        assert spine_angle_deg(kp) == pytest.approx(0.0, abs=1e-3)

    def test_fall_end_spine_horizontal(self):
        actor = solo_actor([(0, 10, "stand"), (10, 40, "fall")])
        kp, _ = pose_at(actor, 39)
        assert spine_angle_deg(kp) == pytest.approx(90.0, abs=1.0)

    def test_sit_end_hip_at_knee_height(self):
        actor = solo_actor([(0, 40, "sit")])
        kp, _ = pose_at(actor, 39)
        gap = abs(float(kp.hip_mid()[1]) - float(kp.midpoint(L_KNEE, R_KNEE)[1]))
        assert gap <= 2.0

    def test_frame_out_of_range(self):
        actor = solo_actor([(0, 20, "stand")])
        with pytest.raises(IndexError):
            pose_at(actor, 20)
        with pytest.raises(IndexError):
            pose_at(actor, -1)

    def test_walk_keeps_spine_vertical(self):
        actor = solo_actor(
            [(0, 30, "walk")], trajectory=((0, 80.0, 200.0), (29, 140.0, 200.0))
        )
        for f in range(0, 30, 5):
            kp, _ = pose_at(actor, f)
            assert spine_angle_deg(kp) == pytest.approx(0.0, abs=1e-3)


class TestGroundTruthIO:
    def test_rle_round_trip(self, fall_scene):
        _, gts = generate_scene(fall_scene)
        records = ground_truth_records(gts)
        assert len(records) == fall_scene.frame_count
        rec = records[50]["actors"][0]
        mask = mask_from_rle(rec["mask_rle"], tuple(rec["mask_shape"]))
        assert np.array_equal(mask, gts[50].actors[0].mask)
