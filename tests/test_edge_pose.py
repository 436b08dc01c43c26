import numpy as np
import pytest

from proxycam.edge.pose import estimate_pose
from proxycam.geometry import BoundingBox
from proxycam.sim.generate import generate_scene


@pytest.fixture
def gt(stand_scene):
    return generate_scene(stand_scene)[1][5]


class TestEstimatePose:
    def test_zero_noise_returns_gt_exactly(self, gt):
        kp = estimate_pose(gt.actors[0], gt.actors[0].box)
        assert kp == gt.actors[0].keypoints
        assert kp.head_yaw == gt.actors[0].keypoints.head_yaw

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
