"""17-joint skeleton model shared by the simulator, the edge, and the cloud.

Joint order follows the common 17-keypoint convention (nose, eyes, ears,
shoulders, elbows, wrists, hips, knees, ankles). A joint is visible or not;
a hidden joint's coordinates carry no meaning beyond being clamped in-range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

NOSE = 0
L_EYE, R_EYE = 1, 2
L_EAR, R_EAR = 3, 4
L_SHOULDER, R_SHOULDER = 5, 6
L_ELBOW, R_ELBOW = 7, 8
L_WRIST, R_WRIST = 9, 10
L_HIP, R_HIP = 11, 12
L_KNEE, R_KNEE = 13, 14
L_ANKLE, R_ANKLE = 15, 16

JOINT_COUNT = 17

# the wire sends a joint coordinate as a u16 count of 1/GRID px, so a wire
# coordinate lies on that grid in [0, COORD_LIMIT)
GRID = 16
COORD_LIMIT = 2**16 / GRID

# 16 limbs. The nose-to-shoulder pair keeps the head connected to the torso
# so the rendered silhouette stays a single component.
BONES = (
    (NOSE, L_EYE),
    (NOSE, R_EYE),
    (NOSE, L_SHOULDER),
    (NOSE, R_SHOULDER),
    (L_SHOULDER, R_SHOULDER),
    (L_SHOULDER, L_ELBOW),
    (L_ELBOW, L_WRIST),
    (R_SHOULDER, R_ELBOW),
    (R_ELBOW, R_WRIST),
    (L_SHOULDER, L_HIP),
    (R_SHOULDER, R_HIP),
    (L_HIP, R_HIP),
    (L_HIP, L_KNEE),
    (L_KNEE, L_ANKLE),
    (R_HIP, R_KNEE),
    (R_KNEE, R_ANKLE),
)

HEAD_JOINTS = (NOSE, L_EYE, R_EYE, L_EAR, R_EAR)


@dataclass(eq=False)
class KeypointSet:
    """One subject's joints for one frame.

    points: (17, 2) float32 array of (u, v).
    visible: (17,) bool array, True where the joint was seen.
    head_yaw: radians, or None when head orientation is unknown. Stored at
    float32 precision so a wire round-trip is bit-exact.
    """

    points: np.ndarray
    visible: np.ndarray
    head_yaw: float | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32)
        self.visible = np.asarray(self.visible, dtype=bool)
        if self.points.shape != (JOINT_COUNT, 2) or self.visible.shape != (JOINT_COUNT,):
            raise ValidationError(f"keypoints must be {JOINT_COUNT} points and visibility flags")
        if self.head_yaw is not None:
            self.head_yaw = float(np.float32(self.head_yaw))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeypointSet):
            return NotImplemented
        return (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.visible, other.visible)
            and self.head_yaw == other.head_yaw
        )

    def visible_points(self) -> np.ndarray:
        return self.points[self.visible]

    def is_visible(self, idx: int) -> bool:
        return bool(self.visible[idx])

    def midpoint(self, a: int, b: int) -> np.ndarray | None:
        """Midpoint of two paired joints, using whichever side is visible."""
        va, vb = self.is_visible(a), self.is_visible(b)
        if va and vb:
            return (self.points[a] + self.points[b]) / 2.0
        if va:
            return self.points[a].copy()
        if vb:
            return self.points[b].copy()
        return None

    def hip_mid(self) -> np.ndarray | None:
        return self.midpoint(L_HIP, R_HIP)

    def shoulder_mid(self) -> np.ndarray | None:
        return self.midpoint(L_SHOULDER, R_SHOULDER)

    def torso_length(self) -> float | None:
        """Shoulder-midpoint to hip-midpoint distance, None if unmeasurable."""
        sm, hm = self.shoulder_mid(), self.hip_mid()
        if sm is None or hm is None:
            return None
        return float(np.hypot(*(sm - hm)))
