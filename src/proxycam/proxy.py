"""Appearance-free skeletal proxies: from a wire pose to pixels.

This is the one path from a pose to pixels, shared by the edge composite
and the cloud reconstruction: `render_proxy` draws a subject,
`occlusion_order` sorts the drawn subjects back to front, and `overlay`
pastes the proxies onto a frame in that order. All three read only what
crosses the wire (the joints with their confidences, the head yaw, the
frame size), so both sides produce the same bytes from the same tuple.

A proxy is a capsule per visible bone plus a head disc, drawn with one
fixed fill and outline for every subject. Nothing about the person except
geometry enters the raster: two different people in the same pose render
to the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DegeneratePoseError
from .geometry import BoundingBox
from .raster import SilhouetteCanvas, outline_of, paste_rgba, validate_frame
from .skeleton import BONES, KeypointSet, L_ANKLE, L_EAR, NOSE, R_ANKLE, R_EAR

FILL_COLOR = (180, 180, 180)
OUTLINE_COLOR = (60, 60, 60)

_LIMB_WIDTH_FRAC = 0.06        # capsule width as a fraction of torso length
_TORSO_FALLBACK_FRAC = 0.3     # of keypoint-extent height, if shoulders/hips are hidden
_HEAD_RADIUS_EAR_FRAC = 0.5    # of the inter-ear distance
_HEAD_RADIUS_FALLBACK = 0.15   # of torso length
_TICK_LENGTH = 2.0             # orientation tick, pixels past the disc rim
_EXTENT_MARGIN_FRAC = 0.10     # keypoint extent box growth, relative


@dataclass(frozen=True)
class SkeletalProxy:
    """RGBA patch plus its placement in frame coordinates."""

    raster: np.ndarray
    anchor: tuple[int, int]


def render_proxy(pose: KeypointSet, frame_size: tuple[int, int]) -> SkeletalProxy:
    """Rasterize the proxy for one subject.

    frame_size is (width, height); the patch is clipped to the frame so the
    proxy always fits when pasted at its anchor. When the shoulders or hips
    are hidden, the torso length falls back to a fraction of the height of
    `keypoint_extent_box(pose)`. Raises DegeneratePoseError when fewer than
    two joints are visible or nothing lands inside the frame.
    """
    frame_w, frame_h = frame_size
    visible = pose.visible()
    if int(visible.sum()) < 2:
        raise DegeneratePoseError("proxy needs at least two visible joints")
    pts = pose.joints[:, :2].astype(np.float64)

    torso = pose.torso_length()
    if torso is None or torso <= 0.0:
        torso = _TORSO_FALLBACK_FRAC * max(keypoint_extent_box(pose).h, 1.0)
    limb_r = max(_LIMB_WIDTH_FRAC * torso / 2.0, 0.75)

    head_r = 0.0
    if pose.is_visible(NOSE):
        if pose.is_visible(L_EAR) and pose.is_visible(R_EAR):
            inter_ear = float(np.hypot(*(pts[L_EAR] - pts[R_EAR])))
            head_r = _HEAD_RADIUS_EAR_FRAC * inter_ear
        if head_r <= 0.0:
            head_r = _HEAD_RADIUS_FALLBACK * torso

    used = pts[visible]
    margin = max(limb_r, head_r) + _TICK_LENGTH + 2.0
    x0 = max(0, int(math.floor(used[:, 0].min() - margin)))
    y0 = max(0, int(math.floor(used[:, 1].min() - margin)))
    x1 = min(frame_w, int(math.ceil(used[:, 0].max() + margin)))
    y1 = min(frame_h, int(math.ceil(used[:, 1].max() + margin)))
    if x1 <= x0 or y1 <= y0:
        raise DegeneratePoseError("proxy silhouette lies outside the frame")

    canvas = SilhouetteCanvas(x0, y0, x1 - x0, y1 - y0)
    for a, b in BONES:
        if pose.is_visible(a) and pose.is_visible(b):
            canvas.add_capsule(pts[a], pts[b], limb_r)
    if head_r > 0.0:
        canvas.add_disc(pts[NOSE], head_r)

    inside = canvas.mask
    tick = np.zeros_like(inside)
    if head_r > 0.0 and pose.head_yaw is not None:
        direction = np.array([math.cos(pose.head_yaw), math.sin(pose.head_yaw)])
        tip = pts[NOSE] + direction * (head_r + _TICK_LENGTH)
        base = pts[NOSE] + direction * head_r
        tick_canvas = SilhouetteCanvas(x0, y0, x1 - x0, y1 - y0)
        tick_canvas.add_capsule(base, tip, 1.0)
        tick = tick_canvas.mask

    raster = np.zeros((y1 - y0, x1 - x0, 4), dtype=np.uint8)
    raster[inside] = (*FILL_COLOR, 255)
    raster[outline_of(inside)] = (*OUTLINE_COLOR, 255)
    raster[tick] = (*OUTLINE_COLOR, 255)
    return SkeletalProxy(raster=raster, anchor=(x0, y0))


class ProxyReuse:
    """The last proxy of each subject of one stream, with the inputs it came from.

    `render_proxy` reads nothing but the joint bytes (confidences
    included), the head yaw and the frame size. When all three repeat bit
    for bit, its output would repeat byte for byte, so the previous proxy
    is returned instead of drawing it again. Reused rasters are read-only.
    One entry per subject: `retain` drops the subjects a frame no longer
    carries.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[tuple, SkeletalProxy]] = {}

    def render(
        self,
        subject_id: int,
        pose: KeypointSet,
        frame_size: tuple[int, int],
        render: Callable[..., SkeletalProxy],
    ) -> SkeletalProxy:
        """The subject's previous proxy if its inputs are unchanged, else
        `render(pose, frame_size)`, remembered for next time.

        `render` is the caller's own `render_proxy` binding, so a test can
        put a counting fake in its place."""
        # floats by their bits: equal-comparing values such as 0.0 and
        # -0.0 are not the same input
        key = (
            pose.joints.tobytes(),
            None if pose.head_yaw is None else float(pose.head_yaw).hex(),
            (int(frame_size[0]), int(frame_size[1])),
        )
        entry = self._entries.get(subject_id)
        if entry is not None and entry[0] == key:
            return entry[1]
        proxy = render(pose, frame_size)
        proxy.raster.flags.writeable = False
        self._entries[subject_id] = (key, proxy)
        return proxy

    def retain(self, subject_ids: Iterable[int]) -> None:
        """Forget every subject not in `subject_ids`."""
        keep = set(subject_ids)
        self._entries = {
            sid: entry for sid, entry in self._entries.items() if sid in keep
        }


def keypoint_extent_box(pose: KeypointSet) -> BoundingBox:
    """Box around the visible joints, grown by a relative margin.

    The cloud reports it as the subject's box, and its height feeds the
    renderer's torso fallback: the tracker box never crosses the wire.
    """
    vis = pose.visible_points()
    if vis.shape[0] == 0:
        raise DegeneratePoseError("no visible joints to box")
    x0, y0 = vis.min(axis=0)
    x1, y1 = vis.max(axis=0)
    box = BoundingBox(float(x0), float(y0), float(x1 - x0), float(y1 - y0))
    return box.scaled(1.0 + _EXTENT_MARGIN_FRAC)


def occlusion_order(poses: Mapping[int, KeypointSet]) -> list[int]:
    """Back-to-front subject order of drawable poses, for `overlay`.

    Depth is the image row of the ankle midpoint (smaller row = farther).
    When both ankles are hidden it is the row of the lowest visible joint;
    a drawable pose has at least two. Ties break on ascending subject id.
    The order is a function of the poses alone, so it never crosses the
    wire: the edge and the cloud each compute it from the same poses.
    """
    keyed: list[tuple[float, int]] = []
    for sid, pose in poses.items():
        ankle = pose.midpoint(L_ANKLE, R_ANKLE)
        if ankle is not None:
            depth = float(ankle[1])
        else:
            depth = float(pose.visible_points()[:, 1].max())
        keyed.append((depth, sid))
    keyed.sort()
    return [sid for _, sid in keyed]


def overlay(frame: np.ndarray, proxies: Sequence[SkeletalProxy]) -> np.ndarray:
    """Paste proxies, given back to front, onto a copy of the frame.

    This is the one compositor: the edge composite and the cloud
    reconstruction are both made by it. Pixels outside every proxy's
    opaque support are returned untouched.
    """
    out = validate_frame(frame).copy()
    for proxy in proxies:
        paste_rgba(out, proxy.raster, proxy.anchor[0], proxy.anchor[1])
    return out
