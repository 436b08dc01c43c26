"""Appearance-free skeletal proxies: from a wire pose to pixels.

This is the one path from a pose to pixels, shared by the cloud
reconstruction and the edge composite: `render_proxies` draws a frame's
subjects (`render_proxy`) in `occlusion_order`, back to front, and
`overlay` pastes them onto a frame. All of them read only what crosses
the wire (the joint points with their visibility, the head yaw, the frame
size), so both sides produce the same bytes from the same tuple. The edge
draws nothing: `is_drawable` gives the verdict of the renderer's own
layout rule, without running it for a pose inside the frame.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import BoundingBox
from .raster import SilhouetteCanvas, outline_of, paste_codes, validate_frame
from .skeleton import BONES, KeypointSet, L_ANKLE, L_EAR, NOSE, R_ANKLE, R_EAR

FILL_COLOR = (180, 180, 180)
OUTLINE_COLOR = (60, 60, 60)
# the colour of each code as one 3-byte item, so a pixel is written in one move
_PALETTE = np.array([(0, 0, 0), FILL_COLOR, OUTLINE_COLOR], dtype=np.uint8).view("V3").ravel()

_LIMB_WIDTH_FRAC = 0.06        # capsule width as a fraction of torso length
_TORSO_FALLBACK_FRAC = 0.3     # of keypoint-extent height, if shoulders/hips are hidden
_HEAD_RADIUS_EAR_FRAC = 0.5    # of the inter-ear distance
_HEAD_RADIUS_FALLBACK = 0.15   # of torso length
_TICK_LENGTH = 2.0             # orientation tick, pixels past the disc rim
_EXTENT_MARGIN_FRAC = 0.10     # keypoint extent box growth, relative


@dataclass(frozen=True)
class SkeletalProxy:
    """The (h, w) uint8 palette codes of a subject's patch (0 transparent,
    1 fill, 2 outline) plus the patch's placement in frame coordinates."""

    codes: np.ndarray
    anchor: tuple[int, int]


def render_proxy(
    poses: Mapping[int, KeypointSet], frame_size: tuple[int, int]
) -> dict[int, SkeletalProxy]:
    """Rasterize the proxies of many subjects with one painter.

    frame_size is (width, height). Every subject's shapes go to one
    `SilhouetteCanvas`, whose `paint` evaluates the windows of all of them
    in one flat pass, so a frame's subjects cost about one call, not one
    call per bone. Returns the drawable subjects' proxies by subject id; a
    subject that `is_drawable` refuses is left out.
    """
    canvas = SilhouetteCanvas()
    placed = {}
    for sid, pose in poses.items():
        layout = _layout(pose, frame_size)
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


def is_drawable(pose: KeypointSet, frame_size: tuple[int, int]) -> bool:
    """Whether `render_proxy` draws `pose`: it has at least two visible
    joints and a patch of non-zero size inside the frame.

    A pose with at least two visible joints, all inside [0, W) x [0, H),
    is drawable without its `_layout`. Proof, for x (y is alike): the
    layout's margin m is at least 0.75 + `_TICK_LENGTH` + 2 = 4.75 > 0,
    and 0 <= xmin <= xmax < W. Its patch is x0 = max(0, floor(xmin - m))
    to x1 = min(W, ceil(xmax + m)). Here floor(xmin - m) < W, and W > 0,
    so x0 < W; ceil(xmax + m) > 0, and ceil(xmax + m) > floor(xmin - m),
    so x0 < ceil(xmax + m). Hence x0 < x1. Every other pose, one with a
    joint outside the frame or a NaN among them, is decided by `_layout`.
    Without pose noise every visible joint of an edge pose is inside: the
    simulator hides the joints outside the frame.
    """
    width, height = frame_size
    inside = [
        0.0 <= x < width and 0.0 <= y < height
        for (x, y), seen in zip(pose.points.tolist(), pose.visible.tolist())
        if seen
    ]
    if len(inside) >= 2 and all(inside):
        return True
    return _layout(pose, frame_size) is not None


def _layout(pose: KeypointSet, frame_size: tuple[int, int]) -> tuple | None:
    """The patch (x0, y0, x1, y1), clipped to the frame so the proxy fits
    when pasted at its anchor, and the limb and head radii of one subject;
    None when it cannot be drawn. When the shoulders or hips are hidden,
    the torso length falls back to a fraction of the height of
    `keypoint_extent_box(pose)`.
    """
    frame_w, frame_h = frame_size
    visible = pose.visible
    if int(visible.sum()) < 2:
        return None
    pts = pose.points.astype(np.float64)

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


def keypoint_extent_box(pose: KeypointSet) -> BoundingBox:
    """Box around the visible joints, grown by a relative margin.

    The cloud reports it as the subject's box, and its height feeds the
    renderer's torso fallback: the tracker box never crosses the wire.
    """
    vis = pose.visible_points()
    if vis.shape[0] == 0:
        raise ValidationError("no visible joints to box")
    x0, y0 = vis.min(axis=0)
    x1, y1 = vis.max(axis=0)
    return extent_box(float(x0), float(y0), float(x1 - x0), float(y1 - y0))


def extent_box(x0: float, y0: float, width: float, height: float) -> BoundingBox:
    """`keypoint_extent_box` of joints whose extent starts at (x0, y0)."""
    return BoundingBox(x0, y0, width, height).scaled(1.0 + _EXTENT_MARGIN_FRAC)


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


def render_proxies(
    poses: Iterable[tuple[int, KeypointSet]],
    frame_size: tuple[int, int],
    drawn: dict[int, SkeletalProxy] | None = None,
) -> list[SkeletalProxy]:
    """The drawable subjects' proxies in `occlusion_order`, for `overlay`.

    frame_size is (width, height). `drawn` holds proxies already drawn for
    some of these subjects; the others go to one `render_proxy` call, and
    their codes are marked read-only and added to `drawn`.
    """
    poses = dict(poses)
    drawn = {} if drawn is None else drawn
    misses = {sid: pose for sid, pose in poses.items() if sid not in drawn}
    if misses:
        for sid, proxy in render_proxy(misses, frame_size).items():
            proxy.codes.flags.writeable = False
            drawn[sid] = proxy
    return [drawn[sid] for sid in occlusion_order({sid: poses[sid] for sid in drawn})]


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
