"""Rule-based behavior classifier over kinematic features.

A transparent decision list stands in for a learned model: every rule is
a threshold on a feature, scaled by torso length where the feature is a
length or a speed, so the rules are resolution-independent. First match
wins. Confidence reflects how far inside its thresholds the firing rule
sits: sigma(4 * m) where m is the mean normalized slack over the rule's
conditions, so a rule that barely fires scores 0.5 and a comfortably
satisfied one approaches 1.
"""

from __future__ import annotations

import math

from .kinematics import KinematicFeatures

LABELS = (
    "standing",
    "walking",
    "sitting",
    "fallen",
    "falling",
    "unknown",
)

FALL_VY_FRAC = 0.08       # of torso length, px/frame
FALLEN_SPINE_DEG = 60.0
FALLEN_ASPECT = 0.8
SIT_GAP_FRAC = 0.15       # |hip_v - knee_v| as fraction of torso
SIT_SPINE_DEG = 30.0
WALK_SPEED_FRAC = 0.02    # of torso length, px/frame
STAND_SPINE_DEG = 20.0


def _confidence(slacks: list[float]) -> float:
    margin = sum(slacks) / len(slacks)
    return 1.0 / (1.0 + math.exp(-4.0 * margin))


def classify_behavior(
    features: KinematicFeatures, prev_label: str | None = None
) -> tuple[str, float]:
    """Label one subject from its features.

    Comparisons are inclusive so a value exactly at a threshold fires its
    rule with zero slack (confidence 0.5). When nothing fires, the
    previous label is held at confidence 0.5 (mild hysteresis), else
    'unknown'.
    """
    torso = max(features.torso_len, 1e-6)
    spine = features.spine_angle_deg
    aspect = features.kp_bbox_aspect

    vy_thr = FALL_VY_FRAC * torso
    if features.hip_vy >= vy_thr:
        return "falling", _confidence([(features.hip_vy - vy_thr) / vy_thr])

    if spine >= FALLEN_SPINE_DEG and aspect <= FALLEN_ASPECT:
        return "fallen", _confidence(
            [
                (spine - FALLEN_SPINE_DEG) / FALLEN_SPINE_DEG,
                (FALLEN_ASPECT - aspect) / FALLEN_ASPECT,
            ]
        )

    if features.knee_mid_v is not None:
        gap = abs(features.hip_mid[1] - features.knee_mid_v)
        gap_thr = SIT_GAP_FRAC * torso
        if gap <= gap_thr and spine <= SIT_SPINE_DEG:
            return "sitting", _confidence(
                [
                    (gap_thr - gap) / gap_thr,
                    (SIT_SPINE_DEG - spine) / SIT_SPINE_DEG,
                ]
            )

    speed_thr = WALK_SPEED_FRAC * torso
    if abs(features.hip_vx) >= speed_thr:
        return "walking", _confidence([(abs(features.hip_vx) - speed_thr) / speed_thr])

    if spine <= STAND_SPINE_DEG:
        return "standing", _confidence([(STAND_SPINE_DEG - spine) / STAND_SPINE_DEG])

    if prev_label is not None and prev_label != "unknown":
        return prev_label, 0.5
    return "unknown", 0.5
