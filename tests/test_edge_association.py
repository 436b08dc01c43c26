from proxycam.edge.pipeline import EdgeState, process_frame
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


class TestCrossingWalkers:
    def test_one_person_is_never_two_subjects(self):
        spec = crossing_walkers()
        frames, gts = generate_scene(spec)
        state = EdgeState(spec.width, spec.height, seed=3)
        for i, (frame, gt) in enumerate(zip(frames, gts)):
            out = process_frame(state, frame, gt)
            assert len(out.poses) <= len(gt.actors), f"frame {i}"
            joints = [pose.points.tobytes() for _, pose in out.poses]
            assert len(set(joints)) == len(joints), f"frame {i}"
