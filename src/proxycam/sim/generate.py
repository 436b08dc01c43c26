"""Deterministic scene rendering with full ground truth.

Actors are articulated stick figures: every bone of the shared skeleton is
a filled capsule, plus a head disc. Clothing color fills the body, skin
color fills the face and head. Rendering an actor also yields its exact
silhouette, which doubles as the ground-truth instance mask, so the mask
delimits precisely the pixels that differ from the clean background. The
ground truth keeps each silhouette cropped to its box, not as a frame.

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
    """One actor in one frame. `silhouette` is its mask cropped to `box`,
    the silhouette's exact extent, in a frame of `frame_shape` (H, W)."""

    actor_id: str
    box: BoundingBox
    silhouette: np.ndarray
    frame_shape: tuple[int, int]
    keypoints: KeypointSet
    head_yaw: float
    action: str

    @property
    def window(self) -> tuple[slice, slice]:
        """The frame's rows and columns under `box`."""
        x, y = int(self.box.x), int(self.box.y)
        h, w = self.silhouette.shape
        return slice(y, y + h), slice(x, x + w)

    @property
    def mask(self) -> np.ndarray:
        """The full-frame (H, W) bool mask, built on each read."""
        mask = np.zeros(self.frame_shape, dtype=bool)
        mask[self.window] = self.silhouette
        return mask


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_idx: int
    actors: tuple[ActorTruth, ...]
    background: np.ndarray

    def joint_mask(self) -> np.ndarray:
        """The union of every actor's mask: the pixels the edge must erase."""
        mask = np.zeros(self.background.shape[:2], dtype=bool)
        for actor in self.actors:
            mask[actor.window] |= actor.silhouette
        return mask


def crop_silhouette(patch: np.ndarray, x0: int, y0: int) -> tuple[BoundingBox, np.ndarray]:
    """The box of a silhouette painted into `patch` at frame position
    (x0, y0), and a copy of its pixels cropped to that box, so the patch
    itself is not kept."""
    rows = np.flatnonzero(patch.any(axis=1))
    cols = np.flatnonzero(patch.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    box = BoundingBox(float(x0 + c0), float(y0 + r0), float(c1 - c0), float(r1 - r0))
    return box, patch[r0:r1, c0:c1].copy()


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


def _draw_actor(
    canvas: SilhouetteCanvas, pose: KeypointSet, height_px: int, frame_w: int, frame_h: int
) -> tuple[int, int, int, int] | None:
    """Queue one actor's shapes on `canvas`; returns (body patch, skin
    patch, x0, y0) or None if the silhouette lies entirely outside the
    frame."""
    pts = pose.points.astype(np.float64)
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

    body = canvas.patch(x0, y0, x1 - x0, y1 - y0)
    skin = canvas.patch(x0, y0, x1 - x0, y1 - y0)
    xy = pts.tolist()
    for i, (a, b) in enumerate(BONES):
        canvas.add_capsule(skin if i in _FACE_BONES else body, xy[a], xy[b], limb_r)
    canvas.add_disc(skin, xy[NOSE], head_r)
    return body, skin, x0, y0


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
            ankle_v = float(pose.points[15:17, 1].mean())
            staged.append((ankle_v, actor, pose, yaw))
        # back-to-front: smaller ankle row is farther away
        staged.sort(key=lambda item: (item[0], item[1].actor_id))

        # every actor of the frame in one painter pass
        silhouettes = SilhouetteCanvas()
        placed = [
            (actor, pose, yaw, _draw_actor(silhouettes, pose, actor.height_px, w, h))
            for _, actor, pose, yaw in staged
        ]
        masks = silhouettes.paint()

        truths: list[ActorTruth] = []
        for actor, pose, yaw, parts in placed:
            if parts is None:
                continue
            body_patch, skin_patch, x0, y0 = parts
            body, skin = masks[body_patch], masks[skin_patch]
            region = canvas[y0 : y0 + body.shape[0], x0 : x0 + body.shape[1]]
            region[body] = actor.clothing
            region[skin] = actor.skin

            box, silhouette = crop_silhouette(body | skin, x0, y0)
            truths.append(
                ActorTruth(
                    actor_id=actor.actor_id,
                    box=box,
                    silhouette=silhouette,
                    frame_shape=(h, w),
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
    points = pose.points.copy()
    u, v = points[:, 0], points[:, 1]
    outside = (u < 0) | (u > w - 1) | (v < 0) | (v > h - 1)
    points[:, 0] = np.clip(u, 0, w - 1)
    points[:, 1] = np.clip(v, 0, h - 1)
    return KeypointSet(points, pose.visible & ~outside, pose.head_yaw)


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
                            [float(u), float(v), 1.0 if seen else 0.0]
                            for (u, v), seen in zip(a.keypoints.points, a.keypoints.visible)
                        ],
                        "head_yaw": a.head_yaw,
                        "action": a.action,
                        "mask_shape": list(a.frame_shape),
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
