"""Behavior inference over a short window of representation tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ValidationError
from ..geometry import BoundingBox
from ..proxy import keypoint_extent_box
from ..skeleton import KeypointSet
from ..transport.model import RepresentationTuple, SyncKey
from .classify import classify_behavior
from .kinematics import extract_kinematics

INFER_WINDOW = 5


@dataclass(frozen=True)
class SubjectReport:
    subject_id: int
    box: BoundingBox
    label: str
    confidence: float


@dataclass(frozen=True)
class BehaviorReport:
    key: SyncKey
    subjects: tuple[SubjectReport, ...]


def _resolve(history: Sequence[KeypointSet]) -> tuple[str, float]:
    """Label the newest pose of a history as a replay from its oldest pose would.

    A label depends on the one before it only when no rule fires, and only
    that case returns 'unknown' when no previous label is given. So the
    newest step is classified alone first, and the step before it is
    resolved, the same way, only when the newest one falls through.
    """
    features = extract_kinematics(history)
    label, conf = classify_behavior(features, None)
    if label == "unknown" and len(history) > 1:
        prev, _ = _resolve(history[:-1])
        label, conf = classify_behavior(features, prev)
    return label, conf


def infer(window: Sequence[RepresentationTuple]) -> BehaviorReport:
    """Classify every subject present in the newest tuple of the window.

    The window must be a frame-ordered slice of one camera's stream. Each
    subject's history is its poses in the window, oldest first. Its label
    is the one a replay of the classifier along that history gives, where
    each step holds the previous label when no rule fires; `_resolve`
    computes it from the newest step backwards and goes back only as far
    as the hold reaches. A subject with any pose in its history that has
    no visible joint is reported as ('unknown', 0.5) with an empty box,
    without failing the frame.
    """
    if not window:
        raise ValidationError("inference needs a non-empty tuple window")
    cam = window[0].key.camera_id
    for a, b in zip(window, window[1:]):
        if b.key.camera_id != cam:
            raise ValidationError("window mixes camera ids")
        if b.key.frame_id <= a.key.frame_id:
            raise ValidationError("window is not frame-ordered")

    histories: dict[int, list[KeypointSet]] = {}
    for t in window:
        for sid, kp in t.poses:
            histories.setdefault(sid, []).append(kp)

    current = window[-1]
    reports: list[SubjectReport] = []
    for sid, kp in sorted(current.poses, key=lambda p: p[0]):
        history = histories[sid]
        if all(pose.visible.any() for pose in history):
            label, conf = _resolve(history)
            box = keypoint_extent_box(kp)
        else:
            label, conf = "unknown", 0.5
            box = BoundingBox(0.0, 0.0, 0.0, 0.0)
        reports.append(
            SubjectReport(subject_id=sid, box=box, label=label, confidence=conf)
        )
    return BehaviorReport(key=current.key, subjects=tuple(reports))
