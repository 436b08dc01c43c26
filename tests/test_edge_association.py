import numpy as np

from proxycam.edge.pipeline import EdgeState, process_frame
from proxycam.edge.pose import assign_actors
from proxycam.geometry import BoundingBox
from proxycam.sim.generate import generate_scene

from conftest import scene, solo_actor


def crossing_walkers(frames=8, ground=(190.0, 200.0)):
    """Two walkers at nearly the same depth cross 240 px in `frames` frames,
    too fast for the tracker to follow: a track coasts past the crossing
    while a new one picks its actor up."""
    last = frames - 1
    return scene(
        [
            solo_actor(
                [(0, frames, "walk")],
                actor_id="east",
                height_px=120,
                trajectory=((0, 40.0, ground[0]), (last, 280.0, ground[0])),
            ),
            solo_actor(
                [(0, frames, "walk")],
                actor_id="west",
                height_px=120,
                clothing=(40, 60, 200),
                trajectory=((0, 280.0, ground[1]), (last, 40.0, ground[1])),
            ),
        ],
        frame_count=frames,
    )


class Actor:
    def __init__(self, box):
        self.box = box


class Frame:
    def __init__(self, *boxes):
        self.actors = tuple(Actor(b) for b in boxes)


class TestAssignActors:
    def test_each_actor_goes_to_one_box_highest_iou_first(self):
        gt = Frame(BoundingBox(0, 0, 10, 10))
        boxes = {1: BoundingBox(1, 0, 10, 10), 2: BoundingBox(0, 0, 10, 10)}
        assigned = assign_actors(boxes, gt)
        assert list(assigned) == [2]
        assert assigned[2] is gt.actors[0]

    def test_tie_goes_to_the_lower_subject_id(self):
        gt = Frame(BoundingBox(5, 0, 10, 10))
        boxes = {7: BoundingBox(6, 0, 10, 10), 3: BoundingBox(4, 0, 10, 10)}
        assert list(assign_actors(boxes, gt)) == [3]

    def test_loser_falls_back_to_its_next_actor(self):
        a, b = BoundingBox(0, 0, 10, 10), BoundingBox(2, 0, 10, 10)
        gt = Frame(a, b)
        boxes = {1: BoundingBox(0, 0, 10, 10), 2: BoundingBox(1, 0, 10, 10)}
        assigned = assign_actors(boxes, gt)
        assert assigned[1] is gt.actors[0]
        assert assigned[2] is gt.actors[1]

    def test_uncontested_boxes_keep_their_best_actor(self):
        gt = Frame(BoundingBox(0, 0, 10, 10), BoundingBox(50, 0, 10, 10))
        boxes = {1: BoundingBox(51, 0, 10, 10), 2: BoundingBox(1, 0, 10, 10)}
        assigned = assign_actors(boxes, gt)
        assert assigned[1] is gt.actors[1]
        assert assigned[2] is gt.actors[0]

    def test_below_threshold_gets_nothing(self):
        gt = Frame(BoundingBox(0, 0, 10, 10))
        assert assign_actors({1: BoundingBox(6, 0, 10, 10)}, gt) == {}


class TestCrossingWalkers:
    def test_one_person_is_never_two_subjects(self):
        spec = crossing_walkers()
        frames, gts = generate_scene(spec)
        state = EdgeState(spec.width, spec.height, seed=3)
        for i, (frame, gt) in enumerate(zip(frames, gts)):
            out = process_frame(state, frame, gt)
            assert len(out.poses) <= len(gt.actors), f"frame {i}"
            joints = [pose.joints.tobytes() for _, pose in out.poses]
            assert len(set(joints)) == len(joints), f"frame {i}"
