"""17-joint skeleton model shared by the simulator, the edge, and the cloud.

Joint order follows the common 17-keypoint convention (nose, eyes, ears,
shoulders, elbows, wrists, hips, knees, ankles). Every keypoint carries a
confidence; a confidence of exactly 0 marks the joint invisible and its
coordinates carry no meaning beyond being clamped in-range.
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

    joints: (17, 3) float32 array of (u, v, confidence).
    head_yaw: radians, or None when head orientation is unknown. Stored at
    float32 precision so a wire round-trip is bit-exact.
    """

    joints: np.ndarray
    head_yaw: float | None = None

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float32)
        if self.joints.shape != (JOINT_COUNT, 3):
            raise ValidationError(
                f"keypoints must have shape ({JOINT_COUNT}, 3), got {self.joints.shape}"
            )
        if self.head_yaw is not None:
            self.head_yaw = float(np.float32(self.head_yaw))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeypointSet):
            return NotImplemented
        return (
            np.array_equal(self.joints, other.joints)
            and self.head_yaw == other.head_yaw
        )

    def validate(self) -> None:
        """Check that values are finite and confidences lie in [0, 1]."""
        conf = self.joints[:, 2]
        if not np.all(np.isfinite(self.joints)):
            raise ValidationError("keypoints contain non-finite values")
        if np.any(conf < 0.0) or np.any(conf > 1.0):
            raise ValidationError("keypoint confidences must lie in [0, 1]")
        if self.head_yaw is not None and not np.isfinite(self.head_yaw):
            raise ValidationError("head_yaw must be finite")

    def visible(self) -> np.ndarray:
        """Boolean mask of joints with nonzero confidence."""
        return self.joints[:, 2] > 0.0

    def visible_points(self) -> np.ndarray:
        return self.joints[self.visible(), :2]

    def is_visible(self, idx: int) -> bool:
        return bool(self.joints[idx, 2] > 0.0)

    def midpoint(self, a: int, b: int) -> np.ndarray | None:
        """Midpoint of two paired joints, using whichever side is visible."""
        va, vb = self.is_visible(a), self.is_visible(b)
        if va and vb:
            return (self.joints[a, :2] + self.joints[b, :2]) / 2.0
        if va:
            return self.joints[a, :2].copy()
        if vb:
            return self.joints[b, :2].copy()
        return None

    def hip_mid(self) -> np.ndarray | None:
        return self.midpoint(L_HIP, R_HIP)

    def shoulder_mid(self) -> np.ndarray | None:
        return self.midpoint(L_SHOULDER, R_SHOULDER)

    def knee_mid(self) -> np.ndarray | None:
        return self.midpoint(L_KNEE, R_KNEE)

    def torso_length(self) -> float | None:
        """Shoulder-midpoint to hip-midpoint distance, None if unmeasurable."""
        sm, hm = self.shoulder_mid(), self.hip_mid()
        if sm is None or hm is None:
            return None
        return float(np.hypot(*(sm - hm)))
