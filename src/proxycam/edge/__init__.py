from .background import BackgroundModel, erase, update_background
from .track import Track, TrackerState, track_step
from .pose import estimate_pose
from .compose import embed, occlusion_order
from .pipeline import EdgeOutput, EdgeParams, EdgeState, detect, process_frame

__all__ = [
    "BackgroundModel",
    "EdgeOutput",
    "EdgeParams",
    "EdgeState",
    "Track",
    "TrackerState",
    "detect",
    "embed",
    "erase",
    "estimate_pose",
    "occlusion_order",
    "process_frame",
    "track_step",
    "update_background",
]
