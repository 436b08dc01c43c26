"""Deterministic scene rendering with full ground truth.

Actors are articulated stick figures: every bone of the shared skeleton is
a filled capsule, plus a head disc. Clothing color fills the body, skin
color fills the face and head. Rendering an actor also yields its exact
silhouette, which doubles as the ground-truth instance mask, so the mask
delimits precisely the pixels that differ from the clean background.

Occlusion is resolved by depth = ankle-midpoint image row: actors lower in
the image are nearer and painted last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from ..geometry import BoundingBox
from ..raster import SilhouetteCanvas
from ..skeleton import BONES, HEAD_JOINTS, KeypointSet, NOSE
from .kinematics import pose_at
from .spec import ActorSpec, SceneSpec, validate_scene_spec

# face bones get skin color; everything else is clothing
_FACE_BONES = tuple(
    i for i, (a, b) in enumerate(BONES) if a in HEAD_JOINTS and b in HEAD_JOINTS
)

_LIMB_RADIUS_FRAC = 0.050   # capsule radius as a fraction of actor height
_HEAD_RADIUS_FRAC = 0.070


@dataclass(frozen=True)
class ActorTruth:
    actor_id: str
    box: BoundingBox
    mask: np.ndarray
    keypoints: KeypointSet
    head_yaw: float
    action: str


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_idx: int
    actors: tuple[ActorTruth, ...]
    background: np.ndarray

    def joint_mask(self) -> np.ndarray:
        """The union of every actor's mask: the pixels the edge must erase."""
        mask = np.zeros(self.background.shape[:2], dtype=bool)
        for actor in self.actors:
            mask |= actor.mask
        return mask


def render_background(spec: SceneSpec) -> np.ndarray:
    h, w = spec.height, spec.width
    bg = spec.background
    out = np.empty((h, w, 3), dtype=np.uint8)
    if bg.kind == "flat":
        out[:] = bg.colors[0]
    elif bg.kind == "checker":
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        parity = ((yy // bg.cell) + (xx // bg.cell)) % 2
        out[parity == 0] = bg.colors[0]
        out[parity == 1] = bg.colors[1]
    else:  # gradient
        top = np.array(bg.colors[0], dtype=np.float64)
        bottom = np.array(bg.colors[1], dtype=np.float64)
        t = np.linspace(0.0, 1.0, h)[:, None]
        rows = np.rint(top[None, :] + t * (bottom - top)[None, :]).astype(np.uint8)
        out[:] = rows[:, None, :]
    return out


def _actor_silhouette(
    pose: KeypointSet, height_px: int, frame_w: int, frame_h: int
) -> tuple[np.ndarray, np.ndarray, int, int] | None:
    """Rasterize one actor; returns (body_mask, skin_mask, x0, y0) or None
    if the silhouette lies entirely outside the frame."""
    pts = pose.joints[:, :2].astype(np.float64)
    limb_r = _LIMB_RADIUS_FRAC * height_px
    head_r = _HEAD_RADIUS_FRAC * height_px
    margin = max(limb_r, head_r) + 2.0

    x0 = int(np.floor(pts[:, 0].min() - margin))
    x1 = int(np.ceil(pts[:, 0].max() + margin))
    y0 = int(np.floor(pts[:, 1].min() - margin))
    y1 = int(np.ceil(pts[:, 1].max() + margin))
    x0, x1 = max(0, x0), min(frame_w, x1)
    y0, y1 = max(0, y0), min(frame_h, y1)
    if x1 <= x0 or y1 <= y0:
        return None

    body = SilhouetteCanvas(x0, y0, x1 - x0, y1 - y0)
    skin = SilhouetteCanvas(x0, y0, x1 - x0, y1 - y0)
    for i, (a, b) in enumerate(BONES):
        canvas = skin if i in _FACE_BONES else body
        canvas.add_capsule(pts[a], pts[b], limb_r)
    skin.add_disc(pts[NOSE], head_r)
    return body.mask, skin.mask, x0, y0


def generate_scene(
    spec: SceneSpec,
) -> tuple[list[np.ndarray], list[GroundTruthFrame]]:
    """Render every frame of the scene along with its ground truth.

    Pure function of the spec: the same spec always produces byte-identical
    frames. Actors whose silhouette falls entirely outside the frame are
    omitted from that frame's ground truth.
    """
    validate_scene_spec(spec)
    background = render_background(spec)
    h, w = spec.height, spec.width

    frames: list[np.ndarray] = []
    gts: list[GroundTruthFrame] = []
    for f in range(spec.frame_count):
        canvas = background.copy()
        staged: list[tuple[float, ActorSpec, KeypointSet, float]] = []
        for actor in spec.actors:
            pose, yaw = pose_at(actor, f)
            ankle_v = float(pose.joints[15:17, 1].mean())
            staged.append((ankle_v, actor, pose, yaw))
        # back-to-front: smaller ankle row is farther away
        staged.sort(key=lambda item: (item[0], item[1].actor_id))

        truths: list[ActorTruth] = []
        for _, actor, pose, yaw in staged:
            parts = _actor_silhouette(pose, actor.height_px, w, h)
            if parts is None:
                continue
            body, skin, x0, y0 = parts
            region = canvas[y0 : y0 + body.shape[0], x0 : x0 + body.shape[1]]
            region[body] = actor.clothing
            region[skin] = actor.skin

            mask = np.zeros((h, w), dtype=bool)
            mask[y0 : y0 + body.shape[0], x0 : x0 + body.shape[1]] = body | skin
            ys, xs = np.nonzero(mask)
            box = BoundingBox(
                float(xs.min()),
                float(ys.min()),
                float(xs.max() - xs.min() + 1),
                float(ys.max() - ys.min() + 1),
            )
            truths.append(
                ActorTruth(
                    actor_id=actor.actor_id,
                    box=box,
                    mask=mask,
                    keypoints=_with_visibility(pose, w, h),
                    head_yaw=yaw,
                    action=actor.action_at(f)[2],
                )
            )
        # ground truth keeps spec order, not paint order
        order = {a.actor_id: i for i, a in enumerate(spec.actors)}
        truths.sort(key=lambda t: order[t.actor_id])
        frames.append(canvas)
        gts.append(GroundTruthFrame(frame_idx=f, actors=tuple(truths), background=background))
    return frames, gts


def _with_visibility(pose: KeypointSet, w: int, h: int) -> KeypointSet:
    """Clamp out-of-frame joints and mark them invisible."""
    joints = pose.joints.copy()
    u, v = joints[:, 0], joints[:, 1]
    outside = (u < 0) | (u > w - 1) | (v < 0) | (v > h - 1)
    joints[outside, 2] = 0.0
    joints[:, 0] = np.clip(u, 0, w - 1)
    joints[:, 1] = np.clip(v, 0, h - 1)
    return KeypointSet(joints=joints, head_yaw=pose.head_yaw)


def _mask_rle(mask: np.ndarray) -> list[int]:
    """Row-major run lengths, alternating and starting with a zero run."""
    flat = mask.ravel()
    if flat.size == 0:
        return []
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return [int(r) for r in runs]


def mask_from_rle(runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    flat = np.zeros(shape[0] * shape[1], dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    if pos != flat.size:
        raise ValidationError("run lengths do not cover the mask")
    return flat.reshape(shape)


def ground_truth_records(gts: list[GroundTruthFrame]) -> list[dict]:
    records = []
    for gt in gts:
        records.append(
            {
                "frame": gt.frame_idx,
                "actors": [
                    {
                        "actor_id": a.actor_id,
                        "box": [a.box.x, a.box.y, a.box.w, a.box.h],
                        "keypoints": [
                            [float(u), float(v), float(p)] for u, v, p in a.keypoints.joints
                        ],
                        "head_yaw": a.head_yaw,
                        "action": a.action,
                        "mask_shape": list(a.mask.shape),
                        "mask_rle": _mask_rle(a.mask),
                    }
                    for a in gt.actors
                ],
            }
        )
    return records


def write_ground_truth_jsonl(gts: list[GroundTruthFrame], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in ground_truth_records(gts):
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
