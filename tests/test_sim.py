import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxycam.errors import ValidationError
from proxycam.raster import SilhouetteCanvas
from proxycam.sim.generate import (
    ActorTruth,
    GroundTruthFrame,
    crop_silhouette,
    generate_scene,
    ground_truth_records,
)
from proxycam.sim.kinematics import pose_at
from proxycam.sim.scripts import make_behavior_scene
from proxycam.sim.spec import (
    ACTIONS,
    SceneSpec,
    load_scene_spec,
    save_scene_spec,
    scene_spec_from_dict,
    validate_scene_spec,
)
from proxycam.skeleton import BONES, L_KNEE, R_KNEE

from conftest import (
    DEMO,
    hip_mid,
    joint_mask_of,
    mask_from_rle,
    midpoint,
    reference_generate_scene,
    scene,
    shoulder_mid,
    solo_actor,
    visible_points,
)


def spine_angle_deg(kp):
    v = shoulder_mid(kp) - hip_mid(kp)
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
            f: float(hip_mid(gts[f].actors[0].keypoints)[1]) for f in (40, 60)
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
                vis = visible_points(actor.keypoints)
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


# a 16 px actor standing on row 0: its patch's margin reaches into the
# frame, but none of its shapes covers a pixel centre there
HIDDEN_SPOTS = ((160.0, 0.0), (0.0, 0.0), (319.0, 0.0))


@pytest.mark.parametrize("x, y", HIDDEN_SPOTS)
def test_an_actor_that_paints_no_pixel_is_left_out(x, y):
    hidden = solo_actor([(0, 3, "stand")], actor_id="hidden", clothing=(40, 200, 40),
                        height_px=16, trajectory=((0, x, y),))
    spec = scene([hidden, solo_actor([(0, 3, "walk")])], frame_count=3)
    frames, gts = generate_scene(spec)
    alone, _ = generate_scene(dataclasses.replace(spec, actors=spec.actors[1:]))
    for frame, other, gt in zip(frames, alone, gts):
        assert [a.actor_id for a in gt.actors] == ["a0"]
        assert np.array_equal(frame, other)


# small frames, so that few sampled positions lie on each edge and corner
SMALL_W, SMALL_H = 160, 120
XS = (0.0, 3.0, 40.0, 80.0, 156.0, 159.0)
YS = (0.0, 2.0, 60.0, 100.0, 117.0, 119.0)


def painted_scene(actors, frame_count):
    """A scene of (height, trajectory, actions) actors, each given its own
    id and colours."""
    return scene(
        [
            solo_actor(actions, actor_id=f"a{i}", clothing=(20 + 9 * i, 200 - 7 * i, 90),
                       height_px=height, trajectory=trajectory)
            for i, (height, trajectory, actions) in enumerate(actors)
        ],
        frame_count=frame_count, width=SMALL_W, height=SMALL_H,
    )


@st.composite
def still_and_moving_scenes(draw):
    """Actors of every action and of holds: scripted poses that stop
    changing, and trajectories that stop. Positions on the frame's edges and
    corners, 16 px actors on row 0 that paint nothing, ankle rows shared by
    several actors, and twins that hold one pose at one spot."""
    frame_count = draw(st.integers(2, 26))
    actors = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(set(draw(st.lists(st.integers(1, frame_count - 1), max_size=2))))
        bounds = [0, *cuts, frame_count]
        actions = tuple(
            (a, b, draw(st.sampled_from(ACTIONS))) for a, b in zip(bounds, bounds[1:])
        )
        trajectory = ((0, draw(st.sampled_from(XS)), draw(st.sampled_from(YS))),)
        if draw(st.booleans()):
            stop = draw(st.integers(1, frame_count))
            trajectory += ((stop, draw(st.sampled_from(XS)), draw(st.sampled_from(YS))),)
        actor = (draw(st.sampled_from((16, 24, 50, 90))), trajectory, actions)
        actors += [actor] * draw(st.integers(1, 2))
    return painted_scene(actors, frame_count)


def assert_same_scene(spec):
    frames, gts = generate_scene(spec)
    ref_frames, ref_gts = reference_generate_scene(spec)
    assert len(frames) == len(ref_frames) == len(gts) == len(ref_gts) == spec.frame_count
    for frame, ref in zip(frames, ref_frames):
        assert frame.dtype == ref.dtype and frame.shape == ref.shape
        assert frame.tobytes() == ref.tobytes()
    for gt, ref in zip(gts, ref_gts):
        assert gt.frame_idx == ref.frame_idx
        assert np.array_equal(gt.background, ref.background)
        assert [a.actor_id for a in gt.actors] == [a.actor_id for a in ref.actors]
        for actor, expected in zip(gt.actors, ref.actors):
            for field in dataclasses.fields(ActorTruth):
                got, want = getattr(actor, field.name), getattr(expected, field.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), field.name
                else:
                    assert got == want, field.name


class TestStillActorsArePaintedOnce:
    """`generate_scene` reuses the paint of an actor whose points equal those
    it last painted; frames and ground truth equal a repaint of every actor
    in every frame."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(still_and_moving_scenes())
    @example(painted_scene(
        [
            (16, ((0, 80.0, 0.0),), ((0, 24, "stand"),)),  # paints no pixel
            (50, ((0, 0.0, 60.0),), ((0, 6, "walk"), (6, 24, "sit"))),
            (50, ((0, 159.0, 60.0),), ((0, 3, "stand"), (3, 24, "fall"))),
            (90, ((0, 80.0, 119.0),), ((0, 24, "raise_arm"),)),
            (90, ((0, 80.0, 119.0),), ((0, 24, "raise_arm"),)),  # its twin
            (24, ((0, 3.0, 100.0), (12, 156.0, 100.0)), ((0, 24, "walk"),)),
        ],
        frame_count=24,
    ))
    def test_frames_and_truth_equal_a_repaint_of_every_actor(self, spec):
        assert_same_scene(spec)

    @staticmethod
    def painter_calls(monkeypatch):
        """The shapes queued before each `paint`, appended as it runs."""
        queued, paints = [0], []
        add, paint = SilhouetteCanvas.add_capsule, SilhouetteCanvas.paint

        def counting_add(self, *args):
            queued[0] += 1
            return add(self, *args)

        def counting_paint(self):
            paints.append(queued[0])
            queued[0] = 0
            return paint(self)

        monkeypatch.setattr(SilhouetteCanvas, "add_capsule", counting_add)
        monkeypatch.setattr(SilhouetteCanvas, "paint", counting_paint)
        return paints

    @staticmethod
    def still_actors(k, frame_count):
        return [
            solo_actor([(0, frame_count, "stand")], actor_id=f"still{i}",
                       clothing=(20 + 30 * i, 40, 200 - 30 * i),
                       trajectory=((0, 40.0 + 60.0 * i, 130.0 + 20.0 * (i % 2)),))
            for i in range(k)
        ]

    def test_only_the_walker_is_queued_after_frame_0(self, monkeypatch):
        shapes = len(BONES) + 1  # every bone and the head disc
        k, frames = 4, 6
        walker = solo_actor([(0, frames, "walk")], actor_id="walker",
                            trajectory=((0, 20.0, 220.0), (frames - 1, 300.0, 220.0)))
        paints = self.painter_calls(monkeypatch)
        generate_scene(scene([*self.still_actors(k, frames), walker], frame_count=frames))
        assert paints == [(k + 1) * shapes] + [shapes] * (frames - 1)

    def test_an_all_still_scene_paints_once(self, monkeypatch):
        paints = self.painter_calls(monkeypatch)
        _, gts = generate_scene(scene(self.still_actors(4, 8), frame_count=8))
        assert paints == [4 * (len(BONES) + 1)]
        assert all(len(gt.actors) == 4 for gt in gts)

    def test_shared_crops_are_read_only_and_masks_are_fresh(self):
        _, gts = generate_scene(scene(self.still_actors(3, 4), frame_count=4))
        first = gts[0].actors
        for gt in gts[1:]:
            for actor, shared in zip(gt.actors, first):
                assert actor.silhouette is shared.silhouette
                assert not actor.silhouette.flags.writeable
                with pytest.raises(ValueError):
                    actor.silhouette[0, 0] = False
        for gt in gts:
            for actor in gt.actors:
                mask = actor.mask
                assert mask.flags.writeable and mask is not actor.mask
                mask[:] = True
                assert actor.mask.sum() == actor.silhouette.sum()
            joint = gt.joint_mask()
            assert joint.flags.writeable
            joint[:] = True
            assert gt.joint_mask().sum() < joint.size


class TestSpecValidation:
    def test_too_small_canvas_rejected(self):
        with pytest.raises(ValidationError, match="width/height"):
            validate_scene_spec(SceneSpec(width=32, height=240, frame_count=1))

    def test_canvas_beyond_the_wire_coordinates_rejected(self):
        # the wire carries joint coordinates in [0, 4096)
        validate_scene_spec(SceneSpec(width=4096, height=4096, frame_count=1))
        with pytest.raises(ValidationError, match="width must be <= 4096, got 4097"):
            validate_scene_spec(SceneSpec(width=4097, height=240, frame_count=1))
        with pytest.raises(ValidationError, match="height must be <= 4096, got 4097"):
            validate_scene_spec(SceneSpec(width=320, height=4097, frame_count=1))

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
        gap = abs(float(hip_mid(kp)[1]) - float(midpoint(kp, L_KNEE, R_KNEE)[1]))
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
