"""Patch-correlation scan for residual appearance in the scrubbed image.

For every 8x8 patch lying fully inside the ground-truth subject mask, the
normalized cross-correlation between the decoded environment image and
the raw frame is computed (on luma). High correlation at a masked patch
would mean subject texture survived into the wire image. Constant patches
have no texture to correlate, so zero variance on either side scores 0 by
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ValidationError
from ..pngio import decode_png
from ..raster import luminance, validate_frame
from ..transport.model import RepresentationTuple

PATCH = 8
_VAR_EPS = 1e-12
# run lengths that double up to PATCH: runs of 1, 2 and 4 give runs of 8
_DOUBLINGS = (1, 2, 4)


@dataclass(frozen=True)
class LeakScanResult:
    max_correlation: float
    location: tuple[int, int] | None  # (x, y) of the peak patch corner
    patches_scanned: int


def _patch_stats(values: np.ndarray, ys: np.ndarray, xs: np.ndarray):
    """Centred pixels and variance of the 8x8 patches with corners (ys, xs)."""
    flat = sliding_window_view(values, (PATCH, PATCH))[ys, xs].reshape(-1, PATCH * PATCH)
    mean = flat.mean(axis=1)
    centered = flat - mean[:, None]
    var = (centered * centered).mean(axis=1)
    return centered, var


def _inside_patches(mask: np.ndarray) -> np.ndarray:
    """Whether the 8x8 patch at each corner (y, x) lies inside the mask.

    The same (H-7, W-7) array as `sliding_window_view(mask, (8, 8)).all(axis=(2, 3))`,
    found separably: a patch is inside when each of its rows holds an 8-long
    run of mask pixels. A run of 2n is two runs of n that start n apart, so
    three shifted ANDs along x, then three along y, find the runs of 8. A
    mask shorter or narrower than a patch gives an empty array.
    """
    runs = mask.astype(bool, copy=False)
    for n in _DOUBLINGS:
        runs = runs[:, :-n] & runs[:, n:]
    for n in _DOUBLINGS:
        runs = runs[:-n] & runs[n:]
    return runs


def pixel_leak_scan(
    t: RepresentationTuple, raw: np.ndarray, gt_mask: np.ndarray
) -> LeakScanResult:
    """Peak masked-patch correlation between the wire image and the raw frame."""
    raw = validate_frame(raw, "raw")
    env = decode_png(t.env_png)
    if env.shape[:2] != raw.shape[:2]:
        raise ValidationError(
            f"env image {env.shape[:2]} and raw frame {raw.shape[:2]} differ in size"
        )
    gt_mask = np.asarray(gt_mask)
    if gt_mask.shape != raw.shape[:2]:
        raise ValidationError("gt_mask does not match the frame size")

    # only the patches inside the mask are scored; nonzero keeps them in
    # row-major order, so the first of equal peaks is the one reported
    ys, xs = np.nonzero(_inside_patches(gt_mask))
    if ys.size == 0:
        return LeakScanResult(max_correlation=0.0, location=None, patches_scanned=0)

    # luma is per pixel, so on the crop the scored patches cover it gives
    # the same floats as on the whole frame
    y0, x0 = ys[0], xs.min()
    crop = np.s_[y0 : ys[-1] + PATCH, x0 : xs.max() + PATCH]
    env_c, env_var = _patch_stats(luminance(env[crop]), ys - y0, xs - x0)
    raw_c, raw_var = _patch_stats(luminance(raw[crop]), ys - y0, xs - x0)
    cov = (env_c * raw_c).mean(axis=1)
    denom = np.sqrt(env_var * raw_var)
    corr = np.where(denom > _VAR_EPS, cov / np.maximum(denom, _VAR_EPS), 0.0)

    peak = int(np.argmax(corr))
    return LeakScanResult(
        max_correlation=float(corr[peak]),
        location=(int(xs[peak]), int(ys[peak])),
        patches_scanned=int(ys.size),
    )
