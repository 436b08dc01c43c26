"""The frame embedding the identity attack uses.

The embedding does not cross the wire: it is a function of the composite,
which the cloud rebuilds byte for byte from the tuple.
"""

from __future__ import annotations

import numpy as np

from ..raster import grid_pool, luminance, validate_frame

EMBEDDING_GRID = 8


def embed(composite: np.ndarray) -> np.ndarray:
    """64-dim embedding: luma mean-pooled over an 8x8 grid, scaled to [0, 1]."""
    composite = validate_frame(composite, "composite")
    pooled = grid_pool(luminance(composite), EMBEDDING_GRID, EMBEDDING_GRID) / 255.0
    return np.clip(pooled, 0.0, 1.0).ravel().astype(np.float32)
