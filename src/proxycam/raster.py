"""Raster primitives: frames, silhouette rasterization, compositing.

Frames are plain numpy arrays of shape (H, W, 3), dtype uint8, row-major.
Silhouettes are built from filled capsules (distance-to-segment fields) and
discs, with no antialiasing, so every rendering decision is a hard pixel
test and repeated renders are byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def validate_frame(frame: np.ndarray, name: str = "frame") -> np.ndarray:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise ValidationError(
            f"{name} must be an (H, W, 3) uint8 array, got shape "
            f"{frame.shape} dtype {frame.dtype}"
        )
    return frame


def validate_mask(mask: np.ndarray, frame: np.ndarray, name: str = "mask") -> np.ndarray:
    mask = np.asarray(mask)
    if mask.shape != frame.shape[:2]:
        raise ValidationError(
            f"{name} shape {mask.shape} does not match frame {frame.shape[:2]}"
        )
    return mask.astype(bool, copy=False)


def _segment_distance(py, px, ay, ax, by, bx):
    """Distance from pixel centres (py, px) to segment (a, b).

    py and px broadcast against each other (a column of row centres and a
    row of column centres), so every pixel takes the same float64 steps
    whatever the shape of the grid it is part of.
    """
    dy, dx = by - ay, bx - ax
    seg_len2 = dy * dy + dx * dx
    if seg_len2 <= 0.0:
        return np.hypot(py - ay, px - ax)
    t = ((py - ay) * dy + (px - ax) * dx) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(py - (ay + t * dy), px - (ax + t * dx))


class SilhouetteCanvas:
    """Accumulates capsules and discs into a boolean patch.

    The patch covers [y0, y0+h) x [x0, x0+w) in frame coordinates; shapes
    falling outside are clipped. A shape is only evaluated inside its own
    window: its bounding box grown by its radius plus one pixel, clipped
    to the patch. Every pixel centre outside that window lies more than a
    pixel beyond the radius, so the window changes cost, not the mask.
    Shapes with a non-finite coordinate paint nothing.
    """

    def __init__(self, x0: int, y0: int, width: int, height: int):
        self.x0 = x0
        self.y0 = y0
        self.mask = np.zeros((height, width), dtype=bool)

    def _window(self, lo_y, hi_y, lo_x, hi_x, radius):
        """Patch slices and pixel-centre vectors (column, row) of a window,
        or None when the window misses the patch."""
        if not all(map(math.isfinite, (lo_y, hi_y, lo_x, hi_x))):
            return None
        reach = radius + 1.0
        h, w = self.mask.shape
        # clamp in float first: an infinite radius covers the whole patch
        r0 = math.floor(max(lo_y - reach - self.y0, 0.0))
        r1 = math.ceil(min(hi_y + reach - self.y0, float(h)))
        c0 = math.floor(max(lo_x - reach - self.x0, 0.0))
        c1 = math.ceil(min(hi_x + reach - self.x0, float(w)))
        if r1 <= r0 or c1 <= c0:
            return None
        # pixel centres at integer + 0.5
        py = np.arange(self.y0 + r0, self.y0 + r1, dtype=np.float64)[:, None] + 0.5
        px = np.arange(self.x0 + c0, self.x0 + c1, dtype=np.float64)[None, :] + 0.5
        return (slice(r0, r1), slice(c0, c1)), py, px

    def add_capsule(self, a, b, radius: float) -> None:
        if not radius > 0:
            return
        ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
        window = self._window(min(ay, by), max(ay, by), min(ax, bx), max(ax, bx), radius)
        if window is None:
            return
        region, py, px = window
        self.mask[region] |= _segment_distance(py, px, ay, ax, by, bx) <= radius

    def add_disc(self, center, radius: float) -> None:
        if not radius > 0:
            return
        cx, cy = float(center[0]), float(center[1])
        window = self._window(cy, cy, cx, cx, radius)
        if window is None:
            return
        region, py, px = window
        self.mask[region] |= np.hypot(py - cy, px - cx) <= radius


def erode4(mask: np.ndarray) -> np.ndarray:
    """4-neighborhood erosion with a False border."""
    out = mask.copy()
    out[1:, :] &= mask[:-1, :]
    out[:-1, :] &= mask[1:, :]
    out[:, 1:] &= mask[:, :-1]
    out[:, :-1] &= mask[:, 1:]
    return out


def outline_of(mask: np.ndarray) -> np.ndarray:
    """One-pixel inner boundary of a boolean mask."""
    return mask & ~erode4(mask)


def paste_rgba(dst: np.ndarray, patch: np.ndarray, x0: int, y0: int) -> None:
    """Paint the opaque pixels of an RGBA patch onto an RGB frame in place.

    Alpha is binary by construction (0 or 255); opaque pixels overwrite.
    """
    h, w = patch.shape[:2]
    H, W = dst.shape[:2]
    sy0, sx0 = max(0, -y0), max(0, -x0)
    dy0, dx0 = max(0, y0), max(0, x0)
    hh = min(h - sy0, H - dy0)
    ww = min(w - sx0, W - dx0)
    if hh <= 0 or ww <= 0:
        return
    sub = patch[sy0 : sy0 + hh, sx0 : sx0 + ww]
    opaque = sub[:, :, 3] > 0
    region = dst[dy0 : dy0 + hh, dx0 : dx0 + ww]
    region[opaque] = sub[:, :, :3][opaque]


def luminance(frame: np.ndarray) -> np.ndarray:
    """Rec.601 luma as float64, same height/width as the input."""
    f = frame.astype(np.float64)
    return 0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2]


def grid_pool(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Mean-pool a 2D array over a rows x cols grid of cells.

    Cell (i, j) covers rows [floor(i*H/rows), floor((i+1)*H/rows)) and the
    analogous column range, so uneven sizes are absorbed by the last cells.
    """
    h, w = values.shape
    r_edges = [(i * h) // rows for i in range(rows + 1)]
    c_edges = [(j * w) // cols for j in range(cols + 1)]
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            cell = values[r_edges[i] : r_edges[i + 1], c_edges[j] : c_edges[j + 1]]
            out[i, j] = cell.mean() if cell.size else 0.0
    return out
