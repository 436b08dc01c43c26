"""Constant-velocity multi-subject tracker with Hungarian assignment.

Tracks predict their next box by shifting with their smoothed velocity.
Predicted boxes are matched to detections by IoU via the Hungarian method
and pairs below the IoU gate are split back apart. The cost matrix is one
NumPy broadcast over the boxes' corners and areas, bit-equal to
`1 - geometry.iou` of each pair. Unmatched detections spawn fresh subject
ids; tracks coast while missed and retire after the miss timeout.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..geometry import BoundingBox


def _load_linear_sum_assignment():
    """scipy's `linear_sum_assignment`, loaded from its compiled `_lsap`
    extension alone.

    `scipy.optimize` takes the function from that extension, so this is
    the same builtin and gives the same assignments, ties included.
    Importing `scipy.optimize` for it would load the whole package, about
    49 MB and 0.4 s after numpy, into every process that tracks.
    The file is found in scipy's `optimize` folder without importing
    scipy; a scipy that has no such file gets the public import.
    """
    scipy = importlib.util.find_spec("scipy")
    for folder in scipy.submodule_search_locations or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(folder) / "optimize" / f"_lsap{suffix}"
            if path.is_file():
                spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment()

IOU_THRESHOLD = 0.2
MISS_TIMEOUT = 10
VELOCITY_ALPHA = 0.5


@dataclass
class Track:
    subject_id: int
    box: BoundingBox
    velocity: tuple[float, float] = (0.0, 0.0)
    misses: int = 0
    # index of the box this track took this frame; None while it coasts
    detection: int | None = None

    def predicted_box(self) -> BoundingBox:
        return self.box.shifted(*self.velocity)


@dataclass
class TrackerState:
    tracks: list[Track] = field(default_factory=list)
    next_id: int = 1


def track_step(state: TrackerState, boxes: list[BoundingBox]) -> list[Track]:
    """Advance the tracker by one frame and return the live tracks.

    Empty box lists are fine: every track coasts on its predicted box and
    accrues a miss.
    """
    tracks = state.tracks
    predicted = [t.predicted_box() for t in tracks]

    matched_t: set[int] = set()
    matched_d: set[int] = set()
    pairs: list[tuple[int, int]] = []
    if tracks and boxes:
        # 1 - geometry.iou of each predicted box (row) and detection
        # (column), as one broadcast with iou's operations in its order
        p, d = (
            np.array([(b.x, b.y, b.x2, b.y2, b.area) for b in side], dtype=np.float64)
            for side in (predicted, boxes)
        )
        p, d = p[:, None, :], d[None, :, :]
        w = np.minimum(p[..., 2], d[..., 2]) - np.maximum(p[..., 0], d[..., 0])
        h = np.minimum(p[..., 3], d[..., 3]) - np.maximum(p[..., 1], d[..., 1])
        inter = np.where(w > 0.0, w, 0.0) * np.where(h > 0.0, h, 0.0)
        union = p[..., 4] + d[..., 4] - inter
        cost = 1.0 - np.divide(inter, union, out=np.zeros_like(union), where=union > 0)
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if 1.0 - cost[i, j] >= IOU_THRESHOLD:
                pairs.append((i, j))
                matched_t.add(i)
                matched_d.add(j)

    for i, j in pairs:
        track = tracks[i]
        box = boxes[j]
        old_cx, old_cy = track.box.center
        new_cx, new_cy = box.center
        a = VELOCITY_ALPHA
        track.velocity = (
            (1.0 - a) * track.velocity[0] + a * (new_cx - old_cx),
            (1.0 - a) * track.velocity[1] + a * (new_cy - old_cy),
        )
        track.box = box
        track.detection = j
        track.misses = 0

    for i, track in enumerate(tracks):
        if i not in matched_t:
            track.box = predicted[i]
            track.detection = None
            track.misses += 1

    for j, box in enumerate(boxes):
        if j not in matched_d:
            tracks.append(Track(subject_id=state.next_id, box=box, detection=j))
            state.next_id += 1

    state.tracks = [t for t in tracks if t.misses <= MISS_TIMEOUT]
    return sorted(state.tracks, key=lambda t: t.subject_id)
