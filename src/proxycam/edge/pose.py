"""Per-subject pose extraction.

Only the ground-truth oracle is implemented: the box is associated with
the overlapping ground-truth subject and its scripted keypoints are
returned, optionally perturbed with seeded Gaussian noise. Within a frame
the association is exclusive (`assign_actors`), so one person never
becomes two subjects. A heuristic pose estimator is a declared
non-capability and is refused explicitly.
"""

from __future__ import annotations

import numpy as np

from ..errors import AssociationError, CapabilityError
from ..geometry import BoundingBox, iou
from ..skeleton import KeypointSet
from ..raster import validate_frame

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
    frame: np.ndarray,
    box: BoundingBox,
    mode: str,
    gt=None,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> KeypointSet:
    """Keypoints for the subject inside `box`.

    In oracle mode the ground-truth subject with the highest box IoU
    (at least 0.5) provides the joints; isotropic Gaussian noise of std
    `noise_sigma` is added per coordinate when requested, drawn from `rng`.
    Joints pushed outside the box are clamped to it and marked invisible.
    """
    frame = validate_frame(frame)
    if mode == "heuristic":
        raise CapabilityError("heuristic pose estimation is not supported")
    if mode != "oracle":
        raise CapabilityError(f"unknown pose mode '{mode}'")
    if gt is None:
        raise AssociationError("oracle pose estimation requires ground truth")

    best, best_iou = None, 0.0
    for actor in gt.actors:
        overlap = iou(box, actor.box)
        if overlap > best_iou:
            best, best_iou = actor, overlap
    if best is None or best_iou < ASSOCIATION_IOU:
        raise AssociationError(
            f"no ground-truth subject overlaps the box (best IoU {best_iou:.2f})"
        )

    joints = best.keypoints.joints.astype(np.float64).copy()
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
        joints=joints.astype(np.float32), head_yaw=best.keypoints.head_yaw
    )
