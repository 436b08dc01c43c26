"""Appearance-free skeletal proxies: from a wire pose to pixels.

This is the one path from a pose to pixels, shared by the cloud
reconstruction and the edge composite: `render_proxies` draws a frame's
subjects (`render_proxy`) in `occlusion_order`, back to front, and
`overlay` pastes them onto a frame. All of them read only what crosses
the wire (the joint points with their visibility, the head yaw, the frame
size) and the `skeleton.measure_poses` records of those poses, so both
sides produce the same bytes from the same tuple. Nothing here measures a
pose: the patch, the radii and the depth come from its record.

A proxy is a capsule per visible bone plus a head disc, drawn with one
fixed fill and outline for every subject. Nothing about the person except
geometry enters it: two different people in the same pose render to the
same bytes. `render_proxy` queues the shapes of every subject it is given
on one `raster.SilhouetteCanvas` and paints them in one flat pass; a
subject's codes are the same whichever other subjects share the call. A
proxy holds palette codes, not colours: `overlay` pastes a frame's codes
back to front onto one canvas, then writes the colours once, at its
nonzero pixels, and `support` reads the same canvas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .raster import SilhouetteCanvas, outline_of, paste_codes, validate_frame
from .skeleton import BONES, NOSE, KeypointSet, PoseGeometry

FILL_COLOR = (180, 180, 180)
OUTLINE_COLOR = (60, 60, 60)
# the colour of each code as one 3-byte item, so a pixel is written in one move
_PALETTE = np.array([(0, 0, 0), FILL_COLOR, OUTLINE_COLOR], dtype=np.uint8).view("V3").ravel()

_LIMB_WIDTH_FRAC = 0.06        # capsule width as a fraction of torso length
_TORSO_FALLBACK_FRAC = 0.3     # of keypoint-extent height, if shoulders/hips are hidden
_HEAD_RADIUS_EAR_FRAC = 0.5    # of the inter-ear distance
_HEAD_RADIUS_FALLBACK = 0.15   # of torso length
_TICK_LENGTH = 2.0             # orientation tick, pixels past the disc rim


@dataclass(frozen=True)
class SkeletalProxy:
    """The (h, w) uint8 palette codes of a subject's patch (0 transparent,
    1 fill, 2 outline) plus the patch's placement in frame coordinates."""

    codes: np.ndarray
    anchor: tuple[int, int]


def render_proxy(
    subjects: Mapping[int, tuple[KeypointSet, PoseGeometry]], frame_size: tuple[int, int]
) -> dict[int, SkeletalProxy]:
    """Rasterize the proxies of many subjects, each a pose and its
    `measure_poses` record, with one painter.

    frame_size is (width, height). Every subject's shapes go to one
    `SilhouetteCanvas`, whose `paint` evaluates the windows of all of them
    in one flat pass, so a frame's subjects cost about one call, not one
    call per bone. Returns the drawable subjects' proxies by subject id; a
    subject whose `_layout` is None is left out.
    """
    canvas = SilhouetteCanvas()
    placed = {}
    for sid, (pose, record) in subjects.items():
        layout = _layout(record, frame_size)
        if layout is not None:
            placed[sid] = _queue_proxy(canvas, pose, layout)
    masks = canvas.paint()
    proxies: dict[int, SkeletalProxy] = {}
    for sid, (x0, y0, body, tick) in placed.items():
        inside = masks[body]
        codes = inside.astype(np.uint8)
        codes[outline_of(inside)] = 2
        if tick is not None:
            codes[masks[tick]] = 2
        proxies[sid] = SkeletalProxy(codes=codes, anchor=(x0, y0))
    return proxies


def _layout(record: PoseGeometry, frame_size: tuple[int, int]) -> tuple | None:
    """The patch (x0, y0, x1, y1), clipped to the frame so the proxy fits
    when pasted at its anchor, and the limb and head radii of one subject,
    from its `measure_poses` record; None when it cannot be drawn: below
    two visible joints, or with a patch clipped to nothing. When the
    shoulders or hips are hidden, the torso length falls back to a
    fraction of the height of the record's box.
    """
    frame_w, frame_h = frame_size
    if record.joints < 2:
        return None

    torso = record.torso
    if torso is None or torso <= 0.0:
        torso = _TORSO_FALLBACK_FRAC * max(record.box.h, 1.0)
    limb_r = max(_LIMB_WIDTH_FRAC * torso / 2.0, 0.75)

    head_r = 0.0
    if record.nose:
        if record.ears is not None:
            head_r = _HEAD_RADIUS_EAR_FRAC * record.ears
        if head_r <= 0.0:
            head_r = _HEAD_RADIUS_FALLBACK * torso

    (u0, v0), (u1, v1) = record.lo, record.hi
    margin = max(limb_r, head_r) + _TICK_LENGTH + 2.0
    x0 = max(0, math.floor(u0 - margin))
    y0 = max(0, math.floor(v0 - margin))
    x1 = min(frame_w, math.ceil(u1 + margin))
    y1 = min(frame_h, math.ceil(v1 + margin))
    if x1 <= x0 or y1 <= y0:
        return None
    return x0, y0, x1, y1, limb_r, head_r


def _queue_proxy(
    canvas: SilhouetteCanvas, pose: KeypointSet, layout: tuple
) -> tuple[int, int, int, int | None]:
    """Queue one subject's shapes on `canvas` at its `_layout`. Returns
    the anchor (x0, y0), the patch of the body (a capsule per visible bone
    plus the head disc) and the patch of the yaw tick, or None."""
    x0, y0, x1, y1, limb_r, head_r = layout
    pts = pose.points.astype(np.float64)
    body = canvas.patch(x0, y0, x1 - x0, y1 - y0)
    seen, xy = pose.visible.tolist(), pts.tolist()
    for a, b in BONES:
        if seen[a] and seen[b]:
            canvas.add_capsule(body, xy[a], xy[b], limb_r)
    if head_r > 0.0:
        canvas.add_disc(body, xy[NOSE], head_r)

    tick = None
    if head_r > 0.0 and pose.head_yaw is not None:
        direction = np.array([math.cos(pose.head_yaw), math.sin(pose.head_yaw)])
        tip = pts[NOSE] + direction * (head_r + _TICK_LENGTH)
        base = pts[NOSE] + direction * head_r
        tick = canvas.patch(x0, y0, x1 - x0, y1 - y0)
        canvas.add_capsule(tick, base, tip, 1.0)
    return x0, y0, body, tick


def pose_key(pose: KeypointSet) -> tuple:
    """The bit-exact identity of all that `render_proxy` reads of a pose:
    the joint points and visibility by their bytes, the head yaw by
    `float.hex`. Equal-comparing floats such as 0.0 and -0.0 are not the
    same input, so their keys differ."""
    yaw = None if pose.head_yaw is None else float(pose.head_yaw).hex()
    return pose.points.tobytes(), pose.visible.tobytes(), yaw


def occlusion_order(geometry: Mapping[int, PoseGeometry]) -> list[int]:
    """Back-to-front order of drawable subjects, by their `measure_poses`
    records, for `overlay`.

    Depth is the record's `depth`, the image row of the ankle midpoint or,
    when both ankles are hidden, of the lowest visible joint (smaller row
    = farther); a drawable pose has at least two visible joints. Ties
    break on ascending subject id. The order is a function of the poses
    alone, so it never crosses the wire: the edge and the cloud each
    compute it from the same poses.
    """
    return sorted(geometry, key=lambda sid: (geometry[sid].depth, sid))


def render_proxies(
    poses: Sequence[tuple[int, KeypointSet]],
    geometry: Sequence[PoseGeometry],
    frame_size: tuple[int, int],
    drawn: dict[int, SkeletalProxy] | None = None,
) -> list[SkeletalProxy]:
    """The drawable subjects' proxies in `occlusion_order`, for `overlay`.

    `geometry` is `measure_poses(poses)`; frame_size is (width, height).
    `drawn` holds proxies already drawn for some of these subjects; the
    others go to one `render_proxy` call, and their codes are marked
    read-only and added to `drawn`.
    """
    subjects = {sid: (pose, record) for (sid, pose), record in zip(poses, geometry, strict=True)}
    drawn = {} if drawn is None else drawn
    misses = {sid: subject for sid, subject in subjects.items() if sid not in drawn}
    if misses:
        for sid, proxy in render_proxy(misses, frame_size).items():
            proxy.codes.flags.writeable = False
            drawn[sid] = proxy
    return [drawn[sid] for sid in occlusion_order({sid: subjects[sid][1] for sid in drawn})]


def overlay(frame: np.ndarray, proxies: Sequence[SkeletalProxy]) -> np.ndarray:
    """Paste proxies, given back to front, onto a copy of the frame.

    This is the one compositor: the cloud reconstruction and the edge
    composite are both made by it. Pixels outside every proxy's
    `support` are returned untouched.
    """
    out = validate_frame(frame).copy()
    codes = _pasted(proxies, out.shape[:2]).ravel()
    painted = np.flatnonzero(codes)
    out.view("V3").reshape(-1)[painted] = _PALETTE[codes[painted]]
    return out


def support(proxies: Sequence[SkeletalProxy], frame_size: tuple[int, int]) -> np.ndarray:
    """The (H, W) boolean mask of the pixels `overlay` paints: the union of
    the proxies' nonzero codes. frame_size is (width, height)."""
    width, height = frame_size
    return _pasted(proxies, (height, width)) > 0


def _pasted(proxies: Sequence[SkeletalProxy], shape: tuple[int, int]) -> np.ndarray:
    """The (H, W) canvas of the proxies' codes, pasted back to front."""
    canvas = np.zeros(shape, np.uint8)
    for proxy in proxies:
        paste_codes(canvas, proxy.codes, *proxy.anchor)
    return canvas
