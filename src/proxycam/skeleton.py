"""17-joint skeleton model shared by the simulator, the edge, and the cloud.

Joint order follows the common 17-keypoint convention (nose, eyes, ears,
shoulders, elbows, wrists, hips, knees, ankles). A joint is visible or not;
a hidden joint's coordinates carry no meaning beyond being clamped in-range.

`measure_poses` is the one measurement of a pose: it gives one
`PoseGeometry` record per pose of a tuple, and the renderer, the painter's
order and the classifier all read these records, so a pose's midpoints,
extent and depth are computed in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import BoundingBox

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


class PoseGeometry(NamedTuple):
    """What the renderer and the classifier read of one pose, measured in
    float32 from its points unless said otherwise.

    joints: the visible joint count. hip: the hip midpoint, the half-sum of
    both hips or the one visible, None when both are hidden. center: the
    hip midpoint, or the visible joints' mean when both hips are hidden.
    knee_v: the knee midpoint's v. spine: shoulder midpoint minus hip
    midpoint, and torso its length, both None unless both midpoints exist.
    lo and hi: the visible joints' least and greatest (u, v); width and
    height: hi - lo; box: `extent_box` of that extent. depth: the ankle
    midpoint's v, or the greatest visible v when both ankles are hidden.
    nose: whether the nose is visible. ears: the distance between the ears
    in float64, None unless both are visible. A pose with no visible joint
    has no center, extent, box or depth.
    """

    joints: int
    hip: tuple[float, float] | None
    center: tuple[float, float] | None
    knee_v: float | None
    spine: tuple[float, float] | None
    torso: float | None
    lo: tuple[float, float] | None
    hi: tuple[float, float] | None
    width: float
    height: float
    box: BoundingBox | None
    depth: float | None
    nose: bool
    ears: float | None


_UNSEEN = PoseGeometry(
    0, None, None, None, None, None, None, None, 0.0, 0.0, None, None, False, None
)

# left and right joints of the pairs whose midpoints a record reads: hip,
# shoulder, knee, ankle
_PAIRS = np.array([[L_HIP, L_SHOULDER, L_KNEE, L_ANKLE], [R_HIP, R_SHOULDER, R_KNEE, R_ANKLE]])
_EXTENT_MARGIN_FRAC = 0.10     # keypoint extent box growth, relative


def measure_poses(poses: Sequence[tuple[int, KeypointSet]]) -> list[PoseGeometry]:
    """One `PoseGeometry` per pose of a tuple, in the order of `poses`.

    The joints of all poses are measured together as (S, 17, 2) arrays.
    The visible joints' mean is their float32 sum over a float32 count:
    on the wire's grid a sum of 17 points is exact, so it equals the mean
    of the visible rows alone.
    """
    if not poses:
        return []
    points = np.array([kp.points for _, kp in poses])
    visible = np.array([kp.visible for _, kp in poses])

    pairs, seen_pairs = points[:, _PAIRS], visible[:, _PAIRS]
    a, b, va, vb = pairs[:, 0], pairs[:, 1], seen_pairs[:, 0], seen_pairs[:, 1]
    # the half-sum of both sides, or the one visible
    mids = np.where(vb[..., None], np.where(va[..., None], (a + b) / 2.0, b), a)
    spines = mids[:, 1] - mids[:, 0]
    torsos = np.hypot(spines[:, 0], spines[:, 1])

    seen = visible[..., None]
    counts = visible.sum(axis=1)
    sums = np.where(seen, points, 0.0).sum(axis=1)
    means = sums / np.maximum(counts, 1)[:, None].astype(np.float32)
    lo = np.where(seen, points, np.inf).min(axis=1)
    hi = np.where(seen, points, -np.inf).max(axis=1)
    extents = hi - lo
    ears = points[:, L_EAR].astype(np.float64) - points[:, R_EAR]
    ears = np.hypot(ears[:, 0], ears[:, 1])

    has_mid = (va | vb).tolist()
    has_ears = (visible[:, L_EAR] & visible[:, R_EAR]).tolist()
    mids, spines, torsos, means = mids.tolist(), spines.tolist(), torsos.tolist(), means.tolist()
    lo, hi, extents, ears = lo.tolist(), hi.tolist(), extents.tolist(), ears.tolist()
    out = []
    for s, (count, nose) in enumerate(zip(counts.tolist(), visible[:, NOSE].tolist())):
        if not count:
            out.append(_UNSEEN)
            continue
        has_hip, has_shoulder, has_knee, has_ankle = has_mid[s]
        hip = tuple(mids[s][0]) if has_hip else None
        both = has_hip and has_shoulder
        width, height = extents[s]
        out.append(
            PoseGeometry(
                joints=count,
                hip=hip,
                center=hip if hip is not None else tuple(means[s]),
                knee_v=mids[s][2][1] if has_knee else None,
                spine=tuple(spines[s]) if both else None,
                torso=torsos[s] if both else None,
                lo=tuple(lo[s]),
                hi=tuple(hi[s]),
                width=width,
                height=height,
                box=extent_box(*lo[s], width, height),
                depth=mids[s][3][1] if has_ankle else hi[s][1],
                nose=nose,
                ears=ears[s] if has_ears[s] else None,
            )
        )
    return out


def extent_box(x0: float, y0: float, width: float, height: float) -> BoundingBox:
    """The box around joints whose extent starts at (x0, y0), grown by a
    relative margin. The cloud reports it as the subject's box, and its
    height feeds the renderer's torso fallback: the tracker box never
    crosses the wire."""
    return BoundingBox(x0, y0, width, height).scaled(1.0 + _EXTENT_MARGIN_FRAC)
