"""Temporal background model and the pixel scrubber built on it.

The model is an exponential moving average fed exclusively by unmasked
pixels. That restriction is the whole privacy argument: the scrubbed
output at a masked pixel is a function of the model (past unmasked
observations) and the fill constant, never of the masked input, so two
frames that differ only inside the mask scrub to identical bytes.

Both steps move masked pixels whole: one 24-byte item per model estimate
and one 3-byte item per output pixel, the same bytes that (N, 3) rows
would carry. The arithmetic is the float64 EMA over the whole frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..raster import validate_frame, validate_mask

EMA_ALPHA = 0.05
NEVER_SEEN_FILL = (128, 128, 128)

# one pixel as one opaque item: 3 float64 estimates, or 3 uint8 channels.
# Moving N masked pixels as N such items costs about half of moving them
# as (N, 3) rows, and copies the same bytes
_ESTIMATE = np.dtype((np.void, 3 * 8))
_RGB = np.dtype((np.void, 3))


def _pixels(pixels: np.ndarray, item: np.dtype) -> np.ndarray:
    """The flat view of a C-contiguous (..., 3) array, one item per pixel;
    writes to it write to the array."""
    return pixels.view(item).reshape(-1)


@dataclass
class BackgroundModel:
    accum: np.ndarray  # (H, W, 3) float64 running estimate, C-contiguous
    seen: np.ndarray   # (H, W) bool, pixel ever observed unmasked

    def __post_init__(self) -> None:
        # update_background writes through a flat view of accum, one item
        # per pixel, which only C-contiguous storage gives
        # (reshape would copy and the writes would be lost)
        self.accum = np.ascontiguousarray(self.accum, dtype=np.float64)
        self.seen = np.ascontiguousarray(self.seen, dtype=bool)
        if self.accum.ndim != 3 or self.accum.shape[2] != 3:
            raise ValidationError(
                f"accum must be (H, W, 3), got shape {self.accum.shape}"
            )
        if self.seen.shape != self.accum.shape[:2]:
            raise ValidationError(
                f"seen shape {self.seen.shape} does not match accum "
                f"{self.accum.shape[:2]}"
            )

    @classmethod
    def create(cls, width: int, height: int) -> "BackgroundModel":
        return cls(
            accum=np.zeros((height, width, 3), dtype=np.float64),
            seen=np.zeros((height, width), dtype=bool),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.accum.shape[:2]


def update_background(
    model: BackgroundModel,
    frame: np.ndarray,
    joint_mask: np.ndarray,
) -> BackgroundModel:
    """Blend unmasked pixels into the running estimate; skip masked ones.

    The update runs in place over the whole frame: every estimate becomes
    `(1 - EMA_ALPHA) * accum + EMA_ALPHA * frame` in float64, then the
    estimates under the mask, saved beforehand, are written back, so
    masked pixels never reach the model. A pixel's first unmasked
    observation seeds the estimate directly. Each unmasked pixel takes the
    same float64 steps as the formula applied to it alone. The masked
    estimates are saved and restored as one 24-byte item per pixel, and
    first-seen pixels are gathered as one 3-byte item each, cast to
    float64 and written as one 24-byte item each.
    Returns the same (mutated) model for chaining.
    """
    frame = validate_frame(frame)
    joint_mask = validate_mask(joint_mask, frame, "joint_mask")
    if model.shape != frame.shape[:2]:
        raise ValidationError(
            f"model shape {model.shape} does not match frame {frame.shape[:2]}"
        )
    estimates = _pixels(model.accum, _ESTIMATE)
    masked = np.flatnonzero(joint_mask)
    held = estimates[masked]
    first = np.flatnonzero(~(joint_mask | model.seen))
    model.accum *= 1.0 - EMA_ALPHA
    model.accum += np.multiply(frame, EMA_ALPHA, dtype=np.float64)
    seeds = _pixels(np.ascontiguousarray(frame), _RGB)[first]
    estimates[first] = seeds.view(np.uint8).astype(np.float64).view(_ESTIMATE)
    estimates[masked] = held
    model.seen |= ~joint_mask
    return model


def erase(
    frame: np.ndarray, joint_mask: np.ndarray, model: BackgroundModel
) -> np.ndarray:
    """Scrub masked pixels out of the frame.

    Masked pixels are replaced by the background estimate where one exists
    and by mid-gray where the pixel has never been observed unmasked. The
    masked input pixels are never read. The masked estimates are gathered
    as one 24-byte item per pixel, and the scrubbed values written as one
    3-byte item per pixel.
    """
    frame = validate_frame(frame)
    joint_mask = validate_mask(joint_mask, frame, "joint_mask")
    if model.shape != frame.shape[:2]:
        raise ValidationError(
            f"model shape {model.shape} does not match frame {frame.shape[:2]}"
        )
    out = frame.copy()  # C order, whatever the frame's layout
    # touch only masked pixels: estimate where the model has data, fill
    # constant elsewhere. One gather of the masked positions (row-major
    # flat indices) serves the model, the seen flags and the output.
    index = np.flatnonzero(joint_mask)
    masked_vals = _pixels(model.accum, _ESTIMATE)[index].view(np.float64)
    np.rint(masked_vals, out=masked_vals)
    np.clip(masked_vals, 0, 255, out=masked_vals)
    masked_vals = masked_vals.astype(np.uint8).reshape(-1, 3)
    masked_vals[~model.seen.reshape(-1)[index]] = NEVER_SEEN_FILL
    _pixels(out, _RGB)[index] = _pixels(masked_vals, _RGB)
    return out
