"""Each pose is measured once, and the records give the per-pose bits.

The references here are the per-pose computations the records replace:
`reference_kinematics` measures a history of `KeypointSet`s with the
pose's own methods, and the tracker's cost is `1 - geometry.iou` of each
pair. The records and the tracker's cost matrix must equal them bit for
bit, signed zeros included.
"""

import importlib
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from proxycam.cloud.kinematics import (
    VELOCITY_WINDOW,
    KinematicFeatures,
    extract_kinematics,
    measure_poses,
)
from proxycam.config import RunConfig
from proxycam.edge.pipeline import EdgeState, process_frame
from proxycam.edge.track import Track, TrackerState, track_step
from proxycam.errors import ValidationError
from proxycam.geometry import BoundingBox, iou
from proxycam.proxy import keypoint_extent_box
from proxycam.runner import CloudRunner, build_tuple
from proxycam.sim.generate import generate_scene
from proxycam.skeleton import (
    L_EAR,
    L_HIP,
    L_KNEE,
    L_SHOULDER,
    R_EAR,
    R_HIP,
    R_KNEE,
    R_SHOULDER,
    KeypointSet,
)
from proxycam.transport.codec import encode

from conftest import scene, solo_actor

runner_module = importlib.import_module("proxycam.runner")
infer_module = importlib.import_module("proxycam.cloud.infer")
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
    measured through its own methods."""
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
    hip_vx = reference_slope([p[0] for p in recent])
    hip_vy = reference_slope([p[1] for p in recent])

    knee = current.midpoint(L_KNEE, R_KNEE)
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


def bits(value):
    """float.hex of every float in a value, None and tuples kept."""
    if value is None:
        return None
    if isinstance(value, KinematicFeatures):
        return bits(tuple(getattr(value, f) for f in value.__dataclass_fields__))
    if isinstance(value, BoundingBox):
        return bits((value.x, value.y, value.w, value.h))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return float(value).hex()


LIMIT = 2.0**24
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0, LIMIT, -LIMIT, LIMIT - 1.0]),
    st.floats(0.0, 320.0, width=32),
    st.floats(-LIMIT, LIMIT, width=32),
)
signed_zeros = st.sampled_from([0.0, -0.0])
PAIRED = (L_HIP, R_HIP, L_SHOULDER, R_SHOULDER, L_KNEE, R_KNEE, L_EAR, R_EAR)


@st.composite
def poses(draw):
    kind = draw(st.sampled_from(["spread", "coincident", "zeros"]))
    if kind == "coincident":
        points = [(draw(coords), draw(coords))] * 17
    elif kind == "zeros":
        points = draw(st.lists(st.tuples(signed_zeros, signed_zeros), min_size=17, max_size=17))
    else:
        points = draw(st.lists(st.tuples(coords, coords), min_size=17, max_size=17))
    shown = draw(st.sampled_from([0, 1, 2, 17, 17]))
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

    measured = []

    def counting(poses):
        measured.append(len(poses))
        return measure_poses(poses)

    monkeypatch.setattr(runner_module, "measure_poses", counting)
    monkeypatch.setattr(infer_module, "measure_poses", counting)
    cloud = CloudRunner(config=RunConfig(), out_dir=tmp_path)
    for packet in packets:
        cloud.feed(packet)
    cloud.finish()
    assert len(cloud.reports) == 30
    assert measured == [3] * 30
