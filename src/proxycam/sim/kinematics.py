"""Scripted skeletal kinematics for the synthetic actors.

Every action is a deterministic interpolation on top of one canonical
upright skeleton, expressed as per-joint offsets from the actor's ground
point (the ankle midpoint) in fractions of the actor height:

  stand      canonical pose, spine exactly vertical
  walk       canonical pose with sinusoidal fore/aft limb swing; the
             actor's position comes from its trajectory
  sit        hips descend to knee height over SIT_FRAMES, then hold
  fall       every joint lerps from the upright pose to a lying pose
             (the upright pose swept 90 degrees about the ankles) over
             FALL_FRAMES, then holds; the hip midpoint therefore drops
             linearly, which is what downstream velocity rules key on
  raise_arm  the left arm lifts straight overhead over RAISE_FRAMES

Holding the terminal pose means a long scripted range stays physically
sensible (someone who fell stays down until the next range).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from ..skeleton import (
    KeypointSet,
    L_ANKLE,
    L_ELBOW,
    L_KNEE,
    L_WRIST,
    R_ANKLE,
    R_ELBOW,
    R_KNEE,
    R_WRIST,
)
from .spec import ActorSpec

FALL_FRAMES = 15
SIT_FRAMES = 20
RAISE_FRAMES = 10
WALK_PERIOD = 16

# (dx, dy_up) per joint, fractions of actor height, ground point at (0, 0).
_STAND = np.array(
    [
        (0.000, 0.930),   # nose
        (-0.020, 0.955),  # left_eye
        (0.020, 0.955),   # right_eye
        (-0.045, 0.940),  # left_ear
        (0.045, 0.940),   # right_ear
        (-0.110, 0.820),  # left_shoulder
        (0.110, 0.820),   # right_shoulder
        (-0.130, 0.630),  # left_elbow
        (0.130, 0.630),   # right_elbow
        (-0.140, 0.450),  # left_wrist
        (0.140, 0.450),   # right_wrist
        (-0.065, 0.520),  # left_hip
        (0.065, 0.520),   # right_hip
        (-0.070, 0.280),  # left_knee
        (0.070, 0.280),   # right_knee
        (-0.075, 0.020),  # left_ankle
        (0.075, 0.020),   # right_ankle
    ],
    dtype=np.float64,
)

_SEATED = _STAND.copy()
_SEATED[[11, 12], 1] = 0.280                      # hips down to knee height
_SEATED[[13, 14], 0] = (0.080, 0.120)             # knees forward
_SEATED[[15, 16], 0] = (0.080, 0.120)             # shins vertical under knees
_SEATED[[0, 1, 2, 3, 4, 5, 6], 1] -= 0.240        # torso and head follow the hips
_SEATED[[7, 8], 1] = 0.390
_SEATED[[9, 10], 1] = 0.210

_RAISED = _STAND.copy()
_RAISED[L_ELBOW] = (-0.130, 0.950)
_RAISED[L_WRIST] = (-0.130, 1.100)


def _to_image(offsets: np.ndarray, px: float, py: float, height: float) -> np.ndarray:
    pts = np.empty_like(offsets)
    pts[:, 0] = px + offsets[:, 0] * height
    pts[:, 1] = py - offsets[:, 1] * height
    return pts


def _lying_points(px: float, py: float, height: float) -> np.ndarray:
    """Upright pose rotated 90 degrees about the ground point, head to +x."""
    pts = np.empty_like(_STAND)
    pts[:, 0] = px + _STAND[:, 1] * height
    pts[:, 1] = py + _STAND[:, 0] * height
    return pts


def _walk_offsets(frame_idx: int, start: int) -> np.ndarray:
    swing = math.sin(2.0 * math.pi * (frame_idx - start) / WALK_PERIOD)
    offsets = _STAND.copy()
    offsets[L_ANKLE, 0] += 0.080 * swing
    offsets[R_ANKLE, 0] -= 0.080 * swing
    offsets[L_KNEE, 0] += 0.040 * swing
    offsets[R_KNEE, 0] -= 0.040 * swing
    # arms counter-swing against the same-side leg
    offsets[L_WRIST, 0] -= 0.060 * swing
    offsets[R_WRIST, 0] += 0.060 * swing
    offsets[L_ELBOW, 0] -= 0.030 * swing
    offsets[R_ELBOW, 0] += 0.030 * swing
    return offsets


def _facing_yaw(actor: ActorSpec, frame_idx: int) -> float:
    x0, y0 = actor.position_at(frame_idx)
    x1, y1 = actor.position_at(frame_idx + 1)
    if abs(x1 - x0) < 1e-9 and abs(y1 - y0) < 1e-9:
        # stationary; look where the previous step pointed, default +x
        x0, y0 = actor.position_at(max(0, frame_idx - 1))
        x1, y1 = actor.position_at(frame_idx)
        if abs(x1 - x0) < 1e-9 and abs(y1 - y0) < 1e-9:
            return 0.0
    return math.atan2(y1 - y0, x1 - x0)


def pose_at(actor: ActorSpec, frame_idx: int) -> tuple[KeypointSet, float]:
    """Scripted pose of `actor` at `frame_idx` in image coordinates.

    Raises IndexError if the frame lies outside the actor's scripted
    timeline.
    """
    if frame_idx < 0:
        raise IndexError(f"frame_idx {frame_idx} is negative")
    try:
        start, end, action = actor.action_at(frame_idx)
    except ValidationError:
        raise IndexError(
            f"frame_idx {frame_idx} is outside the scripted range"
        ) from None

    px, py = actor.position_at(frame_idx)
    h = float(actor.height_px)

    if action == "stand":
        pts = _to_image(_STAND, px, py, h)
    elif action == "walk":
        pts = _to_image(_walk_offsets(frame_idx, start), px, py, h)
    elif action == "sit":
        s = min(1.0, (frame_idx - start) / SIT_FRAMES)
        pts = _to_image(_STAND + s * (_SEATED - _STAND), px, py, h)
    elif action == "raise_arm":
        s = min(1.0, (frame_idx - start) / RAISE_FRAMES)
        pts = _to_image(_STAND + s * (_RAISED - _STAND), px, py, h)
    elif action == "fall":
        s = min(1.0, (frame_idx - start) / FALL_FRAMES)
        upright = _to_image(_STAND, px, py, h)
        lying = _lying_points(px, py, h)
        pts = upright + s * (lying - upright)
    else:  # unreachable once the scene spec validated
        raise ValidationError(f"unknown action '{action}'")

    yaw = _facing_yaw(actor, frame_idx)
    return KeypointSet(pts, np.ones(len(pts), dtype=bool), yaw), yaw
