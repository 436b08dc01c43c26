"""Per-subject pose extraction.

Poses come from ground truth: `estimate_pose` returns the scripted
keypoints of the actor whose box the tracker paired with a track this
frame, optionally perturbed with seeded Gaussian noise. The tracker pairs
each box with one track, so one person never becomes two subjects.
"""

from __future__ import annotations

import numpy as np

from ..geometry import BoundingBox
from ..skeleton import KeypointSet


def estimate_pose(
    actor,
    box: BoundingBox,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> KeypointSet:
    """Keypoints of the ground-truth `actor` assigned to the track `box`.

    Isotropic Gaussian noise of std `noise_sigma` is added per coordinate
    when requested, drawn from `rng`. Joints pushed outside the box are
    clamped to it and marked invisible.
    """
    joints = actor.keypoints.joints.astype(np.float64).copy()
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        joints[:, :2] += rng.normal(0.0, noise_sigma, size=(joints.shape[0], 2))

    u, v = joints[:, 0], joints[:, 1]
    outside = (u < box.x) | (u > box.x2) | (v < box.y) | (v > box.y2)
    joints[outside, 2] = 0.0
    joints[:, 0] = np.clip(u, box.x, box.x2)
    joints[:, 1] = np.clip(v, box.y, box.y2)
    return KeypointSet(
        joints=joints.astype(np.float32), head_yaw=actor.keypoints.head_yaw
    )
