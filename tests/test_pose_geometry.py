"""Each pose is measured once, and the records give the per-pose bits.

The references here are the per-pose computations the records replace:
`reference_record` measures one `KeypointSet` with conftest's per-pose
helpers (`midpoint`, `visible_points`, `torso_length`,
`keypoint_extent_box`) and the depth and ear rules the renderer once ran
on the pose, `reference_kinematics` measures a history of them, and the
tracker's cost is `1 - geometry.iou` of each pair. On poses whose points
lie on the wire's 1/16 px grid, the records and the tracker's cost matrix
must equal them bit for bit.
"""

import importlib
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from proxycam.cloud.kinematics import VELOCITY_WINDOW, KinematicFeatures, extract_kinematics
from proxycam.config import RunConfig
from proxycam.edge.pipeline import EdgeState, process_frame
from proxycam.edge.track import Track, TrackerState, track_step
from proxycam.errors import ValidationError
from proxycam.geometry import BoundingBox, iou
from proxycam.runner import CloudRunner, build_tuple
from proxycam.sim.generate import generate_scene
from proxycam.skeleton import (
    COORD_LIMIT,
    GRID,
    L_ANKLE,
    L_EAR,
    L_HIP,
    L_KNEE,
    L_SHOULDER,
    NOSE,
    R_ANKLE,
    R_EAR,
    R_HIP,
    R_KNEE,
    R_SHOULDER,
    KeypointSet,
    PoseGeometry,
    measure_poses,
)
from proxycam.transport.codec import encode

from conftest import (
    hip_mid,
    keypoint_extent_box,
    midpoint,
    scene,
    shoulder_mid,
    solo_actor,
    torso_length,
    visible_points,
)

runner_module = importlib.import_module("proxycam.runner")
track_module = importlib.import_module("proxycam.edge.track")


def reference_slope(values):
    n = len(values)
    if n < 2:
        return 0.0
    t = np.arange(n, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    t_c = t - t.mean()
    denom = float((t_c * t_c).sum())
    return float((t_c * (y - y.mean())).sum() / denom)


def reference_kinematics(history):
    """Features of a frame-ordered history of `KeypointSet`s, each pose
    measured on its own."""
    if not history:
        raise ValidationError("empty pose history")
    current = history[-1]
    if not current.visible.any():
        raise ValidationError("every joint is invisible")

    sm, hm = shoulder_mid(current), hip_mid(current)
    if sm is not None and hm is not None:
        dx, dy = sm[0] - hm[0], sm[1] - hm[1]
        spine = math.degrees(math.atan2(abs(dx), -dy))
    else:
        spine = 0.0

    vis = visible_points(current)
    width = float(vis[:, 0].max() - vis[:, 0].min())
    height = float(vis[:, 1].max() - vis[:, 1].min())
    aspect = height / max(width, 1e-6)

    torso = torso_length(current)
    if torso is None or torso <= 0.0:
        torso = max(0.3 * height, 1e-6)

    recent = [hip_mid(kp) for kp in history[-VELOCITY_WINDOW:]]
    recent = [p for p in recent if p is not None]
    hip_vx = reference_slope([p[0] for p in recent])
    hip_vy = reference_slope([p[1] for p in recent])

    knee = midpoint(current, L_KNEE, R_KNEE)
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


def pair(point):
    return None if point is None else (float(point[0]), float(point[1]))


def reference_record(kp):
    """The `PoseGeometry` of one pose, each field measured on its own."""
    vis = visible_points(kp)
    if not len(vis):
        return PoseGeometry(0, None, None, None, None, None, None, None, 0.0, 0.0, None, None,
                            False, None)
    hm, sm = hip_mid(kp), shoulder_mid(kp)
    knee, ankle = midpoint(kp, L_KNEE, R_KNEE), midpoint(kp, L_ANKLE, R_ANKLE)
    lo, hi = vis.min(axis=0), vis.max(axis=0)
    pts = kp.points.astype(np.float64)
    return PoseGeometry(
        joints=len(vis),
        hip=pair(hm),
        center=pair(hm if hm is not None else vis.mean(axis=0)),
        knee_v=None if knee is None else float(knee[1]),
        spine=None if sm is None or hm is None else pair(sm - hm),
        torso=torso_length(kp),
        lo=pair(lo),
        hi=pair(hi),
        width=float(hi[0] - lo[0]),
        height=float(hi[1] - lo[1]),
        box=keypoint_extent_box(kp),
        # the painter's depth: the ankle midpoint's row, else the lowest
        # visible joint's
        depth=float(ankle[1]) if ankle is not None else float(vis[:, 1].max()),
        nose=bool(kp.visible[NOSE]),
        # the head radius's inter-ear distance, in float64
        ears=(
            float(np.hypot(*(pts[L_EAR] - pts[R_EAR])))
            if kp.visible[L_EAR] and kp.visible[R_EAR]
            else None
        ),
    )


def bits(value):
    """float.hex of every float in a value; None, ints and bools kept, and
    tuples, records and boxes walked."""
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, KinematicFeatures):
        return bits(tuple(getattr(value, f) for f in value.__dataclass_fields__))
    if isinstance(value, BoundingBox):
        return bits((value.x, value.y, value.w, value.h))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return float(value).hex()


# wire coordinates: a u16 count of 1/16 px, the grid's ends drawn often
coords = st.one_of(
    st.sampled_from([0.0, 1.0 / GRID, 0.5, 3.0, 160.0, COORD_LIMIT - 1.0 / GRID]),
    st.integers(0, 320 * GRID).map(lambda k: k / GRID),
    st.integers(0, 2**16 - 1).map(lambda k: k / GRID),
)
PAIRED = (L_HIP, R_HIP, L_SHOULDER, R_SHOULDER, L_KNEE, R_KNEE, L_ANKLE, R_ANKLE, L_EAR, R_EAR)


@st.composite
def poses(draw):
    if draw(st.sampled_from(["spread", "spread", "coincident"])) == "coincident":
        points = [(draw(coords), draw(coords))] * 17
    else:
        points = draw(st.lists(st.tuples(coords, coords), min_size=17, max_size=17))
    shown = draw(st.sampled_from([0, 1, 2, 3, 17, 17]))
    visible = np.zeros(17, bool)
    visible[draw(st.permutations(range(17)))[:shown]] = True
    # hide paired joints singly and in pairs
    visible[list(draw(st.sets(st.sampled_from(PAIRED), max_size=4)))] = False
    return KeypointSet(np.array(points, np.float32), visible)


@st.composite
def windows(draw):
    """1-5 frames of up to three subjects; a subject may skip frames."""
    frames = draw(st.integers(1, 5))
    subjects = draw(st.integers(1, 3))
    window = [[] for _ in range(frames)]
    for sid in range(subjects):
        for f in range(frames):
            if f == frames - 1 or draw(st.booleans()) or draw(st.booleans()):
                window[f].append((sid, draw(poses())))
    return window


def zero_pose():
    """Every joint visible at a signed zero, so the extent's sign rests on
    which of +0 and -0 a reduction keeps."""
    points = np.zeros((17, 2), np.float32)
    points[::2] = -0.0
    points[::3, 1] = -0.0
    return KeypointSet(points, np.ones(17, bool))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError:
        return "degenerate"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(poses(), max_size=6))
@example([zero_pose()])
def test_every_record_field_equals_the_per_pose_measurement(frame):
    records = measure_poses(list(enumerate(frame)))
    assert len(records) == len(frame)
    for kp, record in zip(frame, records):
        assert bits(record) == bits(reference_record(kp))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(windows())
@example([[(0, zero_pose())]])
@example([[(0, zero_pose())], [(0, zero_pose()), (1, zero_pose())]])
def test_records_give_the_per_pose_features_bit_for_bit(window):
    histories, records = {}, {}
    for frame in window:
        for (sid, kp), record in zip(frame, measure_poses(frame), strict=True):
            histories.setdefault(sid, []).append(kp)
            records.setdefault(sid, []).append(record)
    for sid, kp in window[-1]:
        expected = outcome(reference_kinematics, histories[sid])
        got = outcome(extract_kinematics, records[sid])
        assert (expected == "degenerate") == (got == "degenerate")
        if expected != "degenerate":
            assert bits(got) == bits(expected)
            assert bits(records[sid][-1].box) == bits(keypoint_extent_box(kp))
        else:
            assert records[sid][-1].box is None


box_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 10.0]), st.floats(-400.0, 400.0))
extents = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0, 5.0]), st.floats(-50.0, 200.0))
boxes = st.builds(BoundingBox, box_coords, box_coords, extents, extents)
velocities = st.one_of(st.just((0.0, 0.0)), st.tuples(box_coords, box_coords))


@st.composite
def tracks_and_detections(draw):
    """Tracks, and detections that are random or touch, nest in, overlap,
    equal or miss a track's predicted box."""
    tracks = [
        Track(subject_id=i + 1, box=box, velocity=draw(velocities))
        for i, box in enumerate(draw(st.lists(boxes, min_size=1, max_size=6)))
    ]
    detections = draw(st.lists(boxes, max_size=3))
    relations = st.sampled_from(["touch", "nest", "overlap", "same", "miss"])
    for relation in draw(st.lists(relations, min_size=1, max_size=6)):
        a = draw(st.sampled_from(tracks)).predicted_box()
        if relation == "touch":
            detections.append(BoundingBox(a.x2, a.y, draw(extents), a.h))
        elif relation == "nest":
            detections.append(BoundingBox(a.x + a.w / 4.0, a.y + a.h / 4.0, a.w / 2.0, a.h / 2.0))
        elif relation == "overlap":
            detections.append(a.shifted(draw(st.floats(-1.0, 1.0)) * a.w, draw(extents) / 7.0))
        elif relation == "same":
            detections.append(a)
        else:
            detections.append(a.shifted(abs(a.w) + 1.0, 0.0))
    return tracks, draw(st.permutations(detections))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tracks_and_detections())
def test_tracker_cost_is_one_minus_iou_bit_for_bit(case):
    tracks, detections = case
    predicted = [t.predicted_box() for t in tracks]
    seen = []
    real = track_module.linear_sum_assignment

    def spy(cost):
        seen.append(cost.copy())
        return real(cost)

    track_module.linear_sum_assignment = spy
    try:
        track_step(TrackerState(tracks=tracks, next_id=len(tracks) + 1), detections)
    finally:
        track_module.linear_sum_assignment = real
    expected = np.array([[1.0 - iou(p, b) for b in detections] for p in predicted])
    (cost,) = seen
    assert cost.dtype == np.float64
    assert cost.shape == expected.shape
    assert cost.tobytes() == expected.tobytes()


def test_a_released_tuple_is_measured_once(tmp_path, monkeypatch):
    actors = [
        solo_actor([(0, 30, "walk")], actor_id=f"a{i}", clothing=(200, 40, 80 * i), height_px=60,
                   trajectory=((0, 30.0 + 40.0 * i, 90.0), (29, 50.0 + 40.0 * i, 90.0)))
        for i in range(3)
    ]
    spec = scene(actors, frame_count=30, width=160, height=120)
    frames, gts = generate_scene(spec)
    state = EdgeState(spec.width, spec.height)
    packets = [encode(build_tuple(process_frame(state, f, gt), 0, i, i * 33333))
               for i, (f, gt) in enumerate(zip(frames, gts))]

    measured, inferred, drawn = [], [], []

    def counting(poses):
        measured.append(measure_poses(poses))
        return measured[-1]

    def infer(window, geometry):
        inferred.append(geometry[-1])
        return real_infer(window, geometry)

    def render_proxies(poses, geometry, *args):
        drawn.append(geometry)
        return real_render(poses, geometry, *args)

    real_infer, real_render = runner_module.infer, runner_module.render_proxies
    monkeypatch.setattr(runner_module, "measure_poses", counting)
    monkeypatch.setattr(runner_module, "infer", infer)
    monkeypatch.setattr(runner_module, "render_proxies", render_proxies)
    cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
    for packet in packets:
        cloud.feed(packet)
    cloud.finish()
    assert len(cloud.reports) == 30
    assert [len(records) for records in measured] == [3] * 30
    # the classifier and the renderer read the very records measured
    assert all(a is b for a, b in zip(inferred, measured, strict=True))
    assert len(drawn) == 30
    assert all(a is b for a, b in zip(drawn, measured, strict=True))
