from types import SimpleNamespace

import numpy as np
import pytest

from proxycam.config import EdgeParams, RunConfig
from proxycam.edge.pose import estimate_pose
from proxycam.geometry import BoundingBox
from proxycam.runner import run_edge
from proxycam.sim.generate import generate_scene
from proxycam.sim.spec import load_scene_spec
from proxycam.skeleton import KeypointSet

from conftest import DEMO, on_grid


def on_the_wire_grid(points):
    """Whether every point is one the wire carries: a whole number of
    1/16 px in [0, 4096), with its sign bit clear."""
    steps = points.astype(np.float64) * 16
    return bool(
        (steps == np.round(steps)).all() and (steps < 2**16).all() and not np.signbit(steps).any()
    )


@pytest.fixture
def gt(stand_scene):
    return generate_scene(stand_scene)[1][5]


class TestEstimatePose:
    def test_zero_noise_returns_gt_on_the_wire_grid(self, gt):
        truth = gt.actors[0].keypoints
        kp = estimate_pose(gt.actors[0], gt.actors[0].box)
        assert kp == on_grid(truth)
        assert np.abs(kp.points - truth.points).max() <= 1 / 32
        assert kp.head_yaw == truth.head_yaw

    def test_noisy_points_lie_on_the_wire_grid(self, gt):
        rng = np.random.default_rng(3)
        for _ in range(200):
            kp = estimate_pose(gt.actors[0], gt.actors[0].box, noise_sigma=2.0, rng=rng)
            assert on_the_wire_grid(kp.points)

    def test_a_4096_px_frame_edge_and_negative_zero_map_onto_the_grid(self):
        points = np.full((17, 2), 4096.0, dtype=np.float32)
        points[0] = (-0.0, -0.0)
        points[1] = (4000.01, 0.03)
        actor = SimpleNamespace(keypoints=KeypointSet(points, np.ones(17, dtype=bool)))
        kp = estimate_pose(actor, BoundingBox(-0.0, -0.0, 4096.0, 4096.0))
        assert on_the_wire_grid(kp.points)
        assert kp.points[0].tolist() == [0.0, 0.0] and not np.signbit(kp.points[0]).any()
        assert kp.points[1].tolist() == [4000.0, 0.0]
        assert (kp.points[2:] == 4095.9375).all()

    def test_seeded_noise_is_reproducible(self, gt):
        box = gt.actors[0].box
        a = estimate_pose(
            gt.actors[0], box, noise_sigma=2.0, rng=np.random.default_rng(42)
        )
        b = estimate_pose(
            gt.actors[0], box, noise_sigma=2.0, rng=np.random.default_rng(42)
        )
        assert a == b

    def test_noise_rms_matches_sigma(self, gt):
        # Monte Carlo oracle: per-axis RMS deviation of sigma=2 noise over
        # 1000 trials must land in [1.8, 2.2]
        box = gt.actors[0].box
        rng = np.random.default_rng(7)
        clean = gt.actors[0].keypoints.points.astype(np.float64)
        sq_sum, count = 0.0, 0
        for _ in range(1000):
            kp = estimate_pose(gt.actors[0], box, noise_sigma=2.0, rng=rng)
            vis = kp.visible
            delta = kp.points[vis].astype(np.float64) - clean[vis]
            sq_sum += float((delta**2).sum())
            count += int(delta.size)
        rms = (sq_sum / count) ** 0.5
        assert 1.8 <= rms <= 2.2

    def test_joints_clamped_to_box_lose_confidence(self, gt):
        actor = gt.actors[0]
        # shrink the box so head joints fall outside
        tight = BoundingBox(actor.box.x, actor.box.y + 40, actor.box.w, actor.box.h - 40)
        kp = estimate_pose(actor, tight)
        assert not kp.visible[:5].any()
        assert np.all(kp.points[:, 1] >= tight.y)


class TestWirePoses:
    @pytest.mark.parametrize("noise_sigma", [0.0, 2.0])
    def test_every_pose_the_edge_emits_on_the_demo_lies_on_the_grid(self, noise_sigma):
        config = RunConfig(seed=7, edge=EdgeParams(noise_sigma=noise_sigma))
        stats = run_edge(config, load_scene_spec(DEMO), lambda packet: None, collect_outputs=True)
        poses = [kp for output in stats["outputs"] for _, kp in output.poses]
        assert len(poses) > 500
        assert all(on_the_wire_grid(kp.points) for kp in poses)
