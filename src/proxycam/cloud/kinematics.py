"""Per-subject kinematic features measured from a short pose history."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ValidationError
from ..skeleton import KeypointSet

VELOCITY_WINDOW = 5


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


def _slope(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    t = np.arange(n, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    t_c = t - t.mean()
    denom = float((t_c * t_c).sum())
    return float((t_c * (y - y.mean())).sum() / denom)


def extract_kinematics(history: Sequence[KeypointSet]) -> KinematicFeatures:
    """Features from a frame-ordered pose history (oldest first).

    Only the trailing VELOCITY_WINDOW frames feed the velocity estimate.
    Raises ValidationError when the newest pose has no visible joints
    at all.
    """
    if not history:
        raise ValidationError("empty pose history")
    current = history[-1]
    if not current.visible.any():
        raise ValidationError("every joint is invisible")

    sm, hm = current.shoulder_mid(), current.hip_mid()
    if sm is not None and hm is not None:
        dx, dy = sm[0] - hm[0], sm[1] - hm[1]
        spine = math.degrees(math.atan2(abs(dx), -dy))
    else:
        spine = 0.0

    vis = current.visible_points()
    width = float(vis[:, 0].max() - vis[:, 0].min())
    height = float(vis[:, 1].max() - vis[:, 1].min())
    aspect = height / max(width, 1e-6)

    torso = current.torso_length()
    if torso is None or torso <= 0.0:
        torso = max(0.3 * height, 1e-6)

    recent = [kp.hip_mid() for kp in history[-VELOCITY_WINDOW:]]
    recent = [p for p in recent if p is not None]
    hip_vx = _slope([p[0] for p in recent])
    hip_vy = _slope([p[1] for p in recent])

    knee = current.knee_mid()
    hip = hm if hm is not None else (vis.mean(axis=0))
    return KinematicFeatures(
        spine_angle_deg=spine,
        hip_mid=(float(hip[0]), float(hip[1])),
        hip_vx=hip_vx,
        hip_vy=hip_vy,
        knee_mid_v=float(knee[1]) if knee is not None else None,
        kp_bbox_aspect=aspect,
        torso_len=float(torso),
    )
