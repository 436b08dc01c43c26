"""Raster primitives: frames, silhouette rasterization, compositing.

Frames are plain numpy arrays of shape (H, W, 3), dtype uint8, row-major.
Silhouettes are built from filled capsules (distance-to-segment fields) and
discs, with no antialiasing, so every rendering decision is a hard pixel
test and repeated renders are byte-identical. `SilhouetteCanvas` is the one
painter: the proxies of a frame and the simulator's actors are each drawn
by a single `paint` over all of their shapes. `embed` is the frame
embedding the identity attack reads off a composite.
"""

from __future__ import annotations

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


# Pixels evaluated per flat pass. Shapes beyond it go to further passes,
# so memory is bounded by the pass, not by the frame. At 2**14 each
# float64 temporary is 128 KB, which the allocator reuses; 2**16 or more
# made each pass map fresh pages, and their faults cost more than the
# arithmetic (5.1 against 2.3 ms for a 73,000-pixel simulator frame on
# a 2-vCPU VM)
_PASS_PIXELS = 1 << 14


class SilhouetteCanvas:
    """Boolean patches that capsules and discs are painted into, in one pass.

    A patch covers [y0, y0+h) x [x0, x0+w) in frame coordinates; `patch`
    adds one and returns its index. Shapes are collected, each tagged with
    its patch, and `paint` evaluates all of them together. A shape is only
    evaluated inside its own window: its bounding box grown by its radius
    plus one pixel, clipped to its patch. Every pixel centre outside that
    window lies more than a pixel beyond the radius, so the window changes
    cost, not the mask.

    The windows of all shapes are laid end to end in one flat vector of
    pixel centres, and every pixel takes the float64 steps of the distance
    to its shape's segment: `t = ((py-ay)*dy + (px-ax)*dx) / seg_len2`,
    clipped to [0, 1], then `hypot(py-(ay+t*dy), px-(ax+t*dx)) <= r`. A disc,
    or a capsule of zero length, has `dy = dx = 0` and `seg_len2 = 1`, so
    `t` is 0 and the test is `hypot(py-ay, px-ax) <= r`. The hits are
    scattered into the masks by flat index. A shape with a non-finite
    coordinate, or a radius that is not > 0, paints nothing; an infinite
    radius fills its patch.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[int, int, int, int]] = []  # x0, y0, w, h
        self._offsets: list[int] = [0]  # flat start of each patch, then the end
        self._shapes: list[tuple] = []  # patch, ax, ay, bx, by, radius

    def patch(self, x0: int, y0: int, width: int, height: int) -> int:
        self._patches.append((x0, y0, width, height))
        self._offsets.append(self._offsets[-1] + width * height)
        return len(self._patches) - 1

    def add_capsule(self, patch: int, a, b, radius: float) -> None:
        self._shapes.append((patch, a[0], a[1], b[0], b[1], radius))

    def add_disc(self, patch: int, center, radius: float) -> None:
        self.add_capsule(patch, center, center, radius)

    def paint(self) -> list[np.ndarray]:
        """Evaluate every queued shape; one (h, w) bool mask per patch."""
        flat = np.zeros(self._offsets[-1], dtype=bool)
        shapes = np.array(self._shapes, dtype=np.float64).reshape(-1, 6).T
        patch = shapes[0].astype(np.intp)
        ax, ay, bx, by, radius = shapes[1:]
        x0, y0, w, h = np.array(self._patches, dtype=np.int64).reshape(-1, 4)[patch].T
        with np.errstate(invalid="ignore"):
            reach = radius + 1.0
            # clamp in float first: an infinite radius covers the whole patch
            r0 = np.floor(np.maximum(np.minimum(ay, by) - reach - y0, 0.0))
            r1 = np.ceil(np.minimum(np.maximum(ay, by) + reach - y0, h))
            c0 = np.floor(np.maximum(np.minimum(ax, bx) - reach - x0, 0.0))
            c1 = np.ceil(np.minimum(np.maximum(ax, bx) + reach - x0, w))
            keep = (radius > 0) & np.isfinite(shapes[1:5]).all(axis=0) & (r1 > r0) & (c1 > c0)
        r0, r1, c0, c1 = (v[keep].astype(np.int64) for v in (r0, r1, c0, c1))
        x0, y0, w, patch = x0[keep], y0[keep], w[keep], patch[keep]
        windows = np.array([
            y0 + r0,  # frame row and column of the window's first pixel
            x0 + c0,
            r1 - r0,  # window rows and columns
            c1 - c0,
            np.array(self._offsets)[patch] + r0 * w + c0,  # its flat index
            w,  # row stride of the patch
        ])
        ax, ay, bx, by, radius = ax[keep], ay[keep], bx[keep], by[keep], radius[keep]
        dy, dx = by - ay, bx - ax
        seg_len2 = dy * dy + dx * dx
        point = seg_len2 <= 0.0
        dy[point] = dx[point] = 0.0
        seg_len2[point] = 1.0
        params = np.array([ay, ax, dy, dx, seg_len2, radius])

        ends = np.cumsum(windows[2] * windows[3])
        start = 0
        while start < len(ends):
            # whole shapes up to _PASS_PIXELS, and at least one
            done = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + _PASS_PIXELS, "right")))
            self._pass(flat, windows[:, start:stop], params[:, start:stop])
            start = stop
        return [
            flat[begin:end].reshape(h, w)
            for (_, _, w, h), begin, end in zip(self._patches, self._offsets, self._offsets[1:])
        ]

    @staticmethod
    def _pass(flat, windows, params) -> None:
        top, left, rows, cols, first, stride = windows
        # one entry per window row, then one per pixel, in window order
        row_shape = np.repeat(np.arange(len(rows)), rows)
        j = np.arange(row_shape.size) - np.repeat(np.cumsum(rows) - rows, rows)
        width = cols[row_shape]
        ends = np.cumsum(width)
        col = np.arange(ends[-1]) - np.repeat(ends - width, width)
        # pixel centres at integer + 0.5
        py = np.repeat((top[row_shape] + j) + 0.5, width)
        px = (np.repeat(left[row_shape], width) + col) + 0.5
        ay, ax, dy, dx, seg_len2, radius = (np.repeat(p, rows * cols) for p in params)
        # t = clip(((py - ay) * dy + (px - ax) * dx) / seg_len2, 0, 1), in place
        t = py - ay
        t *= dy
        ex = px - ax
        ex *= dx
        t += ex
        t /= seg_len2
        np.clip(t, 0.0, 1.0, out=t)
        # the offsets py - (ay + t * dy) and px - (ax + t * dx)
        dy *= t
        dy += ay
        ey = np.subtract(py, dy, out=dy)
        dx *= t
        dx += ax
        ex = np.subtract(px, dx, out=ex)
        hit = np.hypot(ey, ex, out=ey) <= radius
        index = np.repeat(first[row_shape] + j * stride[row_shape], width) + col
        flat[index[hit]] = True


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


def _placed(patch: np.ndarray, shape: tuple, x0: int, y0: int):
    """The part of a patch put at (x0, y0) that lies on a frame of `shape`,
    and the frame's (rows, cols) slices under it; None if none of it does."""
    h, w = patch.shape[:2]
    H, W = shape[:2]
    sy0, sx0 = max(0, -y0), max(0, -x0)
    dy0, dx0 = max(0, y0), max(0, x0)
    hh = min(h - sy0, H - dy0)
    ww = min(w - sx0, W - dx0)
    if hh <= 0 or ww <= 0:
        return None
    return patch[sy0 : sy0 + hh, sx0 : sx0 + ww], (slice(dy0, dy0 + hh), slice(dx0, dx0 + ww))


def paste_codes(canvas: np.ndarray, codes: np.ndarray, x0: int, y0: int) -> None:
    """Write the nonzero palette codes of an (h, w) patch put at (x0, y0)
    onto an (H, W) code canvas in place; code 0 is transparent."""
    placed = _placed(codes, canvas.shape, x0, y0)
    if placed is not None:
        sub, region = placed
        np.copyto(canvas[region], sub, where=sub > 0)


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


def embed(composite: np.ndarray) -> np.ndarray:
    """64-dim embedding: luma mean-pooled over an 8x8 grid, scaled to [0, 1].

    It does not cross the wire: it is a function of the composite, which
    the cloud rebuilds byte for byte from the tuple."""
    composite = validate_frame(composite, "composite")
    pooled = grid_pool(luminance(composite), 8, 8) / 255.0
    return np.clip(pooled, 0.0, 1.0).ravel().astype(np.float32)
