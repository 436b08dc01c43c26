import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from proxycam.errors import ValidationError
from proxycam.sim.generate import (
    GroundTruthFrame,
    crop_silhouette,
    generate_scene,
    ground_truth_records,
    mask_from_rle,
)
from proxycam.sim.kinematics import pose_at
from proxycam.sim.scripts import make_behavior_scene
from proxycam.sim.spec import (
    SceneSpec,
    load_scene_spec,
    save_scene_spec,
    scene_spec_from_dict,
    validate_scene_spec,
)
from proxycam.skeleton import L_KNEE, R_KNEE

from conftest import DEMO, joint_mask_of, scene, solo_actor


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


def edge_and_corner_scene():
    """Eight walking actors, each cut by a frame edge or by a corner of a
    320x240 frame: the tall ones' heads leave through the top, the feet of
    those standing on the last row through the bottom."""
    spots = (
        (0.0, 150.0, 100), (319.0, 150.0, 100), (160.0, 120.0, 200), (100.0, 239.0, 100),
        (0.0, 100.0, 200), (319.0, 100.0, 200), (0.0, 239.0, 100), (319.0, 239.0, 100),
    )
    actors = [
        solo_actor([(0, 3, "walk")], actor_id=f"a{i}", clothing=(30 * i, 40, 200 - 20 * i),
                   height_px=height, trajectory=((0, x, y),))
        for i, (x, y, height) in enumerate(spots)
    ]
    return scene(actors, frame_count=3)


class TestGroundTruthCrops:
    """Ground truth keeps each silhouette cropped to its box; `mask` and
    `joint_mask` build full frames from the crops."""

    @staticmethod
    def check(gt):
        for actor in gt.actors:
            box = actor.box
            assert actor.silhouette.shape == (box.h, box.w)
            mask = actor.mask
            assert mask.shape == gt.background.shape[:2] and mask.dtype == bool
            ys, xs = np.nonzero(mask)
            extent = (xs.min(), ys.min(), xs.max() + 1 - xs.min(), ys.max() + 1 - ys.min())
            assert extent == (box.x, box.y, box.w, box.h)
            assert mask.sum() == actor.silhouette.sum()
        assert np.array_equal(gt.joint_mask(), joint_mask_of(gt))

    def test_actors_cut_by_every_edge_and_corner(self):
        spec = edge_and_corner_scene()
        _, gts = generate_scene(spec)
        for gt in gts:
            self.check(gt)
        boxes = [a.box for a in gts[0].actors]
        cut = [
            (b.x == 0, b.y == 0, b.x2 == spec.width, b.y2 == spec.height) for b in boxes
        ]
        # each edge and each corner cuts some actor
        for sides in ((0,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 3), (2, 3)):
            assert any(all(c[i] for i in sides) for c in cut), sides

    def test_one_pixel_slivers(self):
        _, gts = generate_scene(edge_and_corner_scene())
        gt = gts[0]
        h, w = gt.background.shape[:2]
        slivers = []
        # a patch of the frame's corner with one set pixel, and patches of
        # a single set column or row along an edge
        for patch, x0, y0 in (
            (np.eye(1, 4, 3, dtype=bool).reshape(2, 2), w - 2, h - 2),
            (np.pad(np.ones((5, 1), bool), ((1, 0), (0, 2))), 0, 7),
            (np.pad(np.ones((1, 9), bool), ((2, 0), (1, 1))), w - 11, 0),
        ):
            box, silhouette = crop_silhouette(patch, x0, y0)
            slivers.append(
                dataclasses.replace(gt.actors[0], box=box, silhouette=silhouette)
            )
        assert [(b.x, b.y, b.w, b.h) for b in (s.box for s in slivers)] == [
            (w - 1, h - 1, 1, 1), (0, 8, 1, 5), (w - 10, 2, 9, 1),
        ]
        self.check(GroundTruthFrame(0, tuple(slivers) + gt.actors, gt.background))

    def test_ground_truth_holds_crops_not_frames(self):
        actors = [
            solo_actor([(0, 10, "walk" if i % 2 else "stand")], actor_id=f"a{i}",
                       clothing=(10 + 15 * i, 40, 200 - 10 * i), height_px=80,
                       trajectory=((0, 25.0 + 45.0 * (i % 7), 110.0 + 120.0 * (i // 7)),))
            for i in range(14)
        ]
        spec = scene(actors, frame_count=10)
        gc.collect()
        tracemalloc.start()
        try:
            frames, gts = generate_scene(spec)
            del frames
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        truths = [a for gt in gts for a in gt.actors]
        assert len(truths) == 14 * 10
        areas = sum(int(a.box.w * a.box.h) for a in truths)
        # the crops, the one shared background, and the keypoints and
        # records of each actor in each frame: about 1.1 KB each (CPython
        # 3.11, numpy 2.4). A crop that kept its whole painted patch alive
        # would hold about 1.2 KB more per actor
        assert held <= areas + gts[0].background.nbytes + 2048 * len(truths)
        assert held < 14 * 10 * spec.width * spec.height // 8


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

    def test_color_channel_out_of_range_rejected(self):
        actor = solo_actor([(0, 5, "stand")], clothing=(200, 40, 256))
        with pytest.raises(ValidationError, match="channels"):
            validate_scene_spec(scene([actor], frame_count=5))

    def test_json_round_trip(self, fall_scene):
        assert scene_spec_from_dict(dataclasses.asdict(fall_scene)) == fall_scene

    @pytest.mark.parametrize(
        "make", [lambda: load_scene_spec(DEMO), lambda: make_behavior_scene(3)],
        ids=["demo", "behavior3"],
    )
    def test_save_then_load_gives_an_equal_spec(self, tmp_path, make):
        spec = make()
        save_scene_spec(spec, tmp_path / "scene.json")
        assert load_scene_spec(tmp_path / "scene.json") == spec


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
