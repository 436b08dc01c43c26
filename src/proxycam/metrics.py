"""Label-quality metrics against simulator ground truth.

Scoring uses a transition tolerance: frames within `TRANSITION_TOLERANCE` of any
scripted phase boundary (including the scene start, which doubles as
pipeline warm-up) are excluded, since a classifier necessarily lags a
kinematic transition by a few frames. Predicted `falling` and `fallen`
both count as matching a scripted `fall` phase; a scripted `raise_arm`
accepts only `standing`, because no rule labels a raised arm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cloud.infer import BehaviorReport
from .geometry import iou
from .sim.generate import GroundTruthFrame
from .sim.spec import SceneSpec

TRANSITION_TOLERANCE = 5

ACCEPTED = {
    "stand": frozenset({"standing"}),
    "walk": frozenset({"walking"}),
    "sit": frozenset({"sitting"}),
    "fall": frozenset({"falling", "fallen"}),
    "raise_arm": frozenset({"standing"}),
}

FALL_LABELS = frozenset({"falling", "fallen"})


@dataclass
class BehaviorMetrics:
    frames_scored: int = 0
    frames_correct: int = 0
    fall_frames: int = 0
    fall_hits: int = 0
    sit_frames: int = 0
    sit_false_alarms: int = 0

    @property
    def accuracy(self) -> float:
        # vacuous truth on zero scored subjects, by convention
        return self.frames_correct / self.frames_scored if self.frames_scored else 1.0

    @property
    def fall_recall(self) -> float:
        return self.fall_hits / self.fall_frames if self.fall_frames else 1.0

    @property
    def sit_false_alarm_rate(self) -> float:
        return self.sit_false_alarms / self.sit_frames if self.sit_frames else 0.0

    def merge(self, other: "BehaviorMetrics") -> "BehaviorMetrics":
        return BehaviorMetrics(
            frames_scored=self.frames_scored + other.frames_scored,
            frames_correct=self.frames_correct + other.frames_correct,
            fall_frames=self.fall_frames + other.fall_frames,
            fall_hits=self.fall_hits + other.fall_hits,
            sit_frames=self.sit_frames + other.sit_frames,
            sit_false_alarms=self.sit_false_alarms + other.sit_false_alarms,
        )

    def to_dict(self) -> dict:
        return {
            "frames_scored": self.frames_scored,
            "accuracy": self.accuracy,
            "fall_frames": self.fall_frames,
            "fall_recall": self.fall_recall,
            "sit_frames": self.sit_frames,
            "sit_false_alarm_rate": self.sit_false_alarm_rate,
        }


def _boundaries(spec: SceneSpec) -> dict[str, list[int]]:
    return {
        actor.actor_id: sorted({start for start, _, _ in actor.actions})
        for actor in spec.actors
    }


def _eligible(frame: int, boundaries: list[int]) -> bool:
    return all(abs(frame - b) > TRANSITION_TOLERANCE for b in boundaries)


def evaluate_behavior(
    spec: SceneSpec,
    gts: list[GroundTruthFrame],
    reports: dict[int, BehaviorReport],
) -> BehaviorMetrics:
    """Score per-frame labels against the scene script.

    `reports` is keyed by frame_id. Subjects are matched to actors by box
    overlap; an actor with no matching subject on a scored frame counts
    as a miss.
    """
    bounds = _boundaries(spec)
    metrics = BehaviorMetrics()
    for gt in gts:
        report = reports.get(gt.frame_idx)
        subjects = list(report.subjects) if report else []
        for actor in gt.actors:
            if not _eligible(gt.frame_idx, bounds[actor.actor_id]):
                continue
            best_label = None
            best_overlap = 0.0
            for subject in subjects:
                overlap = iou(subject.box, actor.box)
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_label = subject.label
            predicted = best_label if best_overlap >= 0.1 else None

            metrics.frames_scored += 1
            if predicted in ACCEPTED[actor.action]:
                metrics.frames_correct += 1
            if actor.action == "fall":
                metrics.fall_frames += 1
                if predicted in FALL_LABELS:
                    metrics.fall_hits += 1
            if actor.action == "sit":
                metrics.sit_frames += 1
                if predicted in FALL_LABELS:
                    metrics.sit_false_alarms += 1
    return metrics
