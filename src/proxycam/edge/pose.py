"""Per-subject pose extraction.

Poses come from ground truth: `assign_actors` associates each track box
with an overlapping ground-truth subject, and `estimate_pose` returns
that subject's scripted keypoints, optionally perturbed with seeded
Gaussian noise. Within a frame the association is exclusive, so one
person never becomes two subjects.
"""

from __future__ import annotations

import numpy as np

from ..geometry import BoundingBox, iou
from ..skeleton import KeypointSet

ASSOCIATION_IOU = 0.5


def assign_actors(boxes: dict[int, BoundingBox], gt) -> dict[int, object]:
    """Give each ground-truth actor to at most one subject box.

    Pairs with IoU of at least 0.5 are taken greedily: the highest IoU
    first, ties to the lower subject id, then to the earlier actor. A box
    whose actors all went to other boxes gets none. Where no two boxes
    want the same actor, every box gets its own best actor.
    """
    pairs = []
    for sid, box in boxes.items():
        for index, actor in enumerate(gt.actors):
            overlap = iou(box, actor.box)
            if overlap >= ASSOCIATION_IOU:
                pairs.append((-overlap, sid, index))
    pairs.sort()
    assigned: dict[int, object] = {}
    taken: set[int] = set()
    for _, sid, index in pairs:
        if sid not in assigned and index not in taken:
            assigned[sid] = gt.actors[index]
            taken.add(index)
    return assigned


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
