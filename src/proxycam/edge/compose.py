"""Occlusion ordering, and the frame embedding the identity attack uses.

The embedding does not cross the wire: it is a function of the composite,
which the cloud rebuilds byte for byte from the tuple.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..raster import grid_pool, luminance, validate_frame
from ..skeleton import KeypointSet, L_ANKLE, R_ANKLE
from .track import Track

EMBEDDING_GRID = 8


def occlusion_order(
    tracks: list[Track], poses: dict[int, KeypointSet]
) -> list[int]:
    """Back-to-front subject order for the painter's algorithm.

    Depth comes from the ankle-midpoint image row (smaller row = farther).
    Subjects whose ankles are both invisible fall back to the bottom edge
    of their track's velocity-predicted box, so the ordering stays stable
    through short occlusions. Ties break on ascending subject id.
    """
    by_id = {t.subject_id: t for t in tracks}
    keyed: list[tuple[float, int]] = []
    for sid, pose in poses.items():
        ankle = pose.midpoint(L_ANKLE, R_ANKLE)
        if ankle is not None:
            depth = float(ankle[1])
        else:
            track = by_id.get(sid)
            if track is None:
                raise ValidationError(f"pose for unknown subject {sid}")
            depth = track.predicted_box().bottom
        keyed.append((depth, sid))
    keyed.sort()
    return [sid for _, sid in keyed]


def embed(composite: np.ndarray) -> np.ndarray:
    """64-dim embedding: luma mean-pooled over an 8x8 grid, scaled to [0, 1]."""
    composite = validate_frame(composite, "composite")
    pooled = grid_pool(luminance(composite), EMBEDDING_GRID, EMBEDDING_GRID) / 255.0
    return np.clip(pooled, 0.0, 1.0).ravel().astype(np.float32)
