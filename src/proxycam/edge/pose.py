"""Per-subject pose extraction.

Poses come from ground truth: `estimate_pose` returns the scripted
keypoints of the actor whose box the tracker paired with a track this
frame, optionally perturbed with seeded Gaussian noise. The tracker pairs
each box with one track, so one person never becomes two subjects.
Every point is rounded to the wire's 1/16 px grid here, where the pose is
made, so the edge's composite, the packet and the cloud all see one value.
"""

from __future__ import annotations

import numpy as np

from ..geometry import BoundingBox
from ..skeleton import GRID, KeypointSet


def estimate_pose(
    actor,
    box: BoundingBox,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> KeypointSet:
    """Keypoints of the ground-truth `actor` assigned to the track `box`.

    Isotropic Gaussian noise of std `noise_sigma` is added per coordinate
    when requested, drawn from `rng`. Joints pushed outside the box are
    clamped to it and marked invisible. Every point is then rounded to the
    nearest 1/GRID px, and a -0.0 becomes +0.0: the wire's values.
    """
    truth = actor.keypoints
    points = truth.points.astype(np.float64)
    if noise_sigma > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        points += rng.normal(0.0, noise_sigma, size=points.shape)

    u, v = points[:, 0], points[:, 1]
    outside = (u < box.x) | (u > box.x2) | (v < box.y) | (v > box.y2)
    points[:, 0] = np.clip(u, box.x, box.x2)
    points[:, 1] = np.clip(v, box.y, box.y2)
    # a box's far edge may lie on a 4096-px frame's border, one step past
    # the largest u16 count
    points = np.clip(np.round(points * GRID), 0, 2**16 - 1) / GRID + 0.0
    return KeypointSet(
        points=points, visible=truth.visible & ~outside, head_yaw=truth.head_yaw
    )
