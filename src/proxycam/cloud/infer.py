"""Behavior inference over a short window of representation tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ValidationError
from ..geometry import BoundingBox
from ..skeleton import PoseGeometry
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


def _resolve(history: Sequence[PoseGeometry]) -> tuple[str, float]:
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


def infer(
    window: Sequence[RepresentationTuple], geometry: Sequence[Sequence[PoseGeometry]]
) -> BehaviorReport:
    """Classify every subject present in the newest tuple of the window.

    The window must be a frame-ordered slice of one camera's stream.
    `geometry` holds, per tuple, `measure_poses` of its poses, measured
    once when the tuple entered the caller's window. Each subject's
    history is its measured poses in the window, oldest first.
    Its label is the one a replay of the classifier along that history
    gives, where each step holds the previous label when no rule fires;
    `_resolve` computes it from the newest step backwards and goes back
    only as far as the hold reaches. The report box is the newest pose's
    `PoseGeometry.box`. A subject with any pose in its history that has
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

    histories: dict[int, list[PoseGeometry]] = {}
    for t, records in zip(window, geometry, strict=True):
        for (sid, _), record in zip(t.poses, records, strict=True):
            histories.setdefault(sid, []).append(record)

    current = window[-1]
    reports: list[SubjectReport] = []
    newest = [(sid, record) for (sid, _), record in zip(current.poses, geometry[-1])]
    for sid, record in sorted(newest, key=lambda p: p[0]):
        history = histories[sid]
        if all(g.joints for g in history):
            label, conf = _resolve(history)
            box = record.box
        else:
            label, conf = "unknown", 0.5
            box = BoundingBox(0.0, 0.0, 0.0, 0.0)
        reports.append(
            SubjectReport(subject_id=sid, box=box, label=label, confidence=conf)
        )
    return BehaviorReport(key=current.key, subjects=tuple(reports))
