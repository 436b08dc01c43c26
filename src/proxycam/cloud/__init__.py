from .kinematics import KinematicFeatures, extract_kinematics
from .classify import LABELS, classify_behavior
from .infer import BehaviorReport, SubjectReport, infer
from .reconstruct import reconstruct, render_proxies

__all__ = [
    "BehaviorReport",
    "KinematicFeatures",
    "LABELS",
    "SubjectReport",
    "classify_behavior",
    "extract_kinematics",
    "infer",
    "reconstruct",
    "render_proxies",
]
