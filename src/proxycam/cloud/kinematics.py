"""Per-subject kinematic features from a short history of measured poses.

A pose is measured once, when its tuple enters a camera's inference
window: `skeleton.measure_poses` gives one `PoseGeometry` per pose, which
stays beside the tuple while it is in the window, and the same records
feed the renderer. `extract_kinematics` reads a subject's history of these
records, so no pose is measured again for the later windows it sits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ValidationError
from ..skeleton import PoseGeometry

VELOCITY_WINDOW = 5


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
    if not current.joints:
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
