"""Per-frame edge pipeline: detect, track, pose, scrub.

One EdgeState per camera stream; frames must be fed in order because both
the tracker and the background model are temporal. The output carries
what the transport tuple needs and never the raw frame. The edge draws no
proxy; `EdgeOutput.composite` is drawn only for a caller that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import StageError, ValidationError
from ..geometry import BoundingBox
from .. import proxy
from ..skeleton import KeypointSet
from ..raster import validate_frame
from .background import BackgroundModel, erase, update_background
# unused here; perfbench/trace.py wraps the names
# proxycam.edge.pipeline.{render_proxy, occlusion_order, overlay, embed}
from ..proxy import occlusion_order, overlay, render_proxy
from ..raster import embed
from .pose import estimate_pose
from .track import TrackerState, track_step


@dataclass(frozen=True)
class EdgeParams:
    noise_sigma: float = 0.0


@dataclass
class EdgeState:
    width: int
    height: int
    params: EdgeParams = field(default_factory=EdgeParams)
    seed: int = 0
    tracker: TrackerState = field(init=False)
    background: BackgroundModel = field(init=False)
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        self.tracker = TrackerState()
        self.background = BackgroundModel.create(self.width, self.height)
        self.rng = np.random.default_rng(self.seed)


@dataclass(frozen=True)
class EdgeOutput:
    """Everything extracted from one frame: the scrubbed image and the
    drawable poses by subject id. The raw frame is not here."""

    desensitized: np.ndarray
    poses: tuple[tuple[int, KeypointSet], ...]

    @property
    def composite(self) -> np.ndarray:
        """The scrubbed image with the proxies pasted on, drawn on each
        access by the cloud's two calls on these pre-wire values, through
        `proxy`: perfbench/trace.py times this module's names as frame work."""
        height, width = self.desensitized.shape[:2]
        return proxy.overlay(self.desensitized, proxy.render_proxies(self.poses, (width, height)))


def _stage(name: str):
    def wrap(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise StageError(name, exc) from exc

    return wrap


def detect(gt) -> list[BoundingBox]:
    """The subject boxes of a frame: its ground-truth actor boxes."""
    if gt is None:
        raise ValidationError("detection requires ground truth")
    return [actor.box for actor in gt.actors]


def process_frame(state: EdgeState, frame: np.ndarray, gt=None) -> EdgeOutput:
    """Run the full per-frame edge pipeline.

    Boxes, masks and poses come from the ground truth `gt`, which is
    required: without it the "detect" stage fails. Erasure always uses
    every ground-truth subject mask, not just the tracked ones, so a
    tracking failure can never leak pixels.
    """
    frame = validate_frame(frame)
    if frame.shape[:2] != (state.height, state.width):
        raise StageError(
            "input", ValueError(f"frame shape {frame.shape[:2]} does not match stream")
        )

    boxes = _stage("detect")(detect, gt)
    tracks = _stage("track")(track_step, state.tracker, boxes)

    poses: dict[int, KeypointSet] = {}
    for track in tracks:
        if track.detection is None:
            # a coasting track took no box this frame, so it has no actor
            continue
        poses[track.subject_id] = _stage("pose")(
            estimate_pose,
            gt.actors[track.detection],
            track.box,
            noise_sigma=state.params.noise_sigma,
            rng=state.rng,
        )

    joint_mask = gt.joint_mask()
    desensitized = _stage("erase")(erase, frame, joint_mask, state.background)
    _stage("background")(update_background, state.background, frame, joint_mask)

    # a pose the renderer cannot draw does not go on the wire
    size = (state.width, state.height)
    drawable = [sid for sid in sorted(poses) if proxy.is_drawable(poses[sid], size)]
    return EdgeOutput(desensitized, tuple((sid, poses[sid]) for sid in drawable))
