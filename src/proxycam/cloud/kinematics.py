"""Per-subject kinematic features measured from a short pose history.

A pose is measured once, when its tuple enters a camera's inference
window: `measure_poses` takes all the poses of a tuple in one pass and
gives one `PoseGeometry` per pose, which stays beside the tuple while it
is in the window. `extract_kinematics` reads a subject's history of these
records, so no pose is measured again for the later windows it sits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ValidationError
from ..geometry import BoundingBox
from ..proxy import extent_box
from ..skeleton import L_HIP, L_KNEE, L_SHOULDER, R_HIP, R_KNEE, R_SHOULDER, KeypointSet

VELOCITY_WINDOW = 5

# left and right joints of the pairs whose midpoints the features read:
# hip, shoulder, knee
_PAIRS = np.array([[L_HIP, L_SHOULDER, L_KNEE], [R_HIP, R_SHOULDER, R_KNEE]])


def _centred_time(n: int) -> tuple[np.ndarray, float]:
    t = np.arange(n, dtype=np.float64)
    t_c = t - t.mean()
    return t_c, float((t_c * t_c).sum())


# frame indices 0..n-1 minus their mean, and their sum of squares: small
# integers and halves, so exact
_CENTRED_TIME = {n: _centred_time(n) for n in range(2, VELOCITY_WINDOW + 1)}


@dataclass(frozen=True)
class KinematicFeatures:
    """Geometry and motion of one subject at the newest frame.

    spine_angle_deg is measured between the hip-to-shoulder vector and the
    image vertical (0 = upright, 90 = horizontal). Velocities are
    least-squares slopes of the hip midpoint over the last
    min(VELOCITY_WINDOW, available) frames, in pixels per frame.
    """

    spine_angle_deg: float
    hip_mid: tuple[float, float]
    hip_vx: float
    hip_vy: float
    knee_mid_v: float | None
    kp_bbox_aspect: float
    torso_len: float


class PoseGeometry(NamedTuple):
    """What the cloud reads of one pose, measured in float32 as the pose's
    own `KeypointSet` methods would.

    hip: the hip midpoint (`KeypointSet.midpoint`), None when both hips
    are hidden. center: the hip midpoint, or the visible joints' mean when
    both hips are hidden. knee_v: the knee midpoint's v. spine: shoulder
    midpoint minus hip midpoint, and torso its length, both None unless
    both midpoints exist. width and height: the visible joints' extent;
    box: `keypoint_extent_box` of the pose. A pose with no visible joint
    has visible False and no center, extent or box.
    """

    visible: bool
    hip: tuple[float, float] | None
    center: tuple[float, float] | None
    knee_v: float | None
    spine: tuple[float, float] | None
    torso: float | None
    width: float
    height: float
    box: BoundingBox | None


_UNSEEN = PoseGeometry(False, None, None, None, None, None, 0.0, 0.0, None)


def measure_poses(poses: Sequence[tuple[int, KeypointSet]]) -> list[PoseGeometry]:
    """One `PoseGeometry` per pose of a tuple, in the order of `poses`.

    The joints of all poses are measured together as (S, 17, 2) float32
    arrays, with the same float32 operations per pose as the pose's own
    methods; the visible joints' mean of a pose whose hips are both hidden
    stays a call on the pose, since its float32 sum runs over the visible
    rows alone.
    """
    if not poses:
        return []
    kps = [kp for _, kp in poses]
    points = np.array([kp.points for kp in kps])
    visible = np.array([kp.visible for kp in kps])

    pairs, seen_pairs = points[:, _PAIRS], visible[:, _PAIRS]
    a, b, va, vb = pairs[:, 0], pairs[:, 1], seen_pairs[:, 0], seen_pairs[:, 1]
    # `KeypointSet.midpoint`: the half-sum of both sides, or the one visible
    mids = np.where(vb[..., None], np.where(va[..., None], (a + b) / 2.0, b), a)
    spines = mids[:, 1] - mids[:, 0]
    torsos = np.hypot(spines[:, 0], spines[:, 1])

    seen = visible[..., None]
    lo = np.where(seen, points, np.inf).min(axis=1)
    hi = np.where(seen, points, -np.inf).max(axis=1)
    extents = hi - lo

    seen_any = visible.any(axis=1).tolist()
    has_mid = (va | vb).tolist()
    mids, spines, torsos = mids.tolist(), spines.tolist(), torsos.tolist()
    lo, extents = lo.tolist(), extents.tolist()
    out = []
    for s, kp in enumerate(kps):
        if not seen_any[s]:
            out.append(_UNSEEN)
            continue
        has_hip, has_shoulder, has_knee = has_mid[s]
        hip = tuple(mids[s][0]) if has_hip else None
        center = hip
        if hip is None:
            mean = kp.visible_points().mean(axis=0)
            center = (float(mean[0]), float(mean[1]))
        both = has_hip and has_shoulder
        width, height = extents[s]
        out.append(
            PoseGeometry(
                visible=True,
                hip=hip,
                center=center,
                knee_v=mids[s][2][1] if has_knee else None,
                spine=tuple(spines[s]) if both else None,
                torso=torsos[s] if both else None,
                width=width,
                height=height,
                box=extent_box(*lo[s], width, height),
            )
        )
    return out


def _hip_slopes(hips: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slopes of the hip's u and v over its frames, 0 below two."""
    n = len(hips)
    if n < 2:
        return 0.0, 0.0
    t_c, denom = _CENTRED_TIME[n]
    y = np.array(tuple(zip(*hips)), dtype=np.float64)
    mean = y.sum(axis=1, keepdims=True) / n
    vx, vy = ((t_c * (y - mean)).sum(axis=1) / denom).tolist()
    return vx, vy


def extract_kinematics(history: Sequence[PoseGeometry]) -> KinematicFeatures:
    """Features from a frame-ordered history of measured poses (oldest first).

    Only the trailing VELOCITY_WINDOW frames feed the velocity estimate.
    Raises ValidationError when the newest pose has no visible joints
    at all.
    """
    if not history:
        raise ValidationError("empty pose history")
    current = history[-1]
    if not current.visible:
        raise ValidationError("every joint is invisible")

    if current.spine is not None:
        dx, dy = current.spine
        spine = math.degrees(math.atan2(abs(dx), -dy))
    else:
        spine = 0.0

    aspect = current.height / max(current.width, 1e-6)
    torso = current.torso
    if torso is None or torso <= 0.0:
        torso = max(0.3 * current.height, 1e-6)

    hips = [g.hip for g in history[-VELOCITY_WINDOW:] if g.hip is not None]
    hip_vx, hip_vy = _hip_slopes(hips)
    return KinematicFeatures(
        spine_angle_deg=spine,
        hip_mid=current.center,
        hip_vx=hip_vx,
        hip_vy=hip_vy,
        knee_mid_v=current.knee_v,
        kp_bbox_aspect=aspect,
        torso_len=torso,
    )
