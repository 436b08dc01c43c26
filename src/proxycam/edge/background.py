"""Temporal background model and the pixel scrubber built on it.

The model is an exponential moving average fed exclusively by unmasked
pixels. That restriction is the whole privacy argument: the scrubbed
output at a masked pixel is a function of the model (past unmasked
observations) and the fill constant, never of the masked input, so two
frames that differ only inside the mask scrub to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..raster import validate_frame, validate_mask

EMA_ALPHA = 0.05
NEVER_SEEN_FILL = (128, 128, 128)


@dataclass
class BackgroundModel:
    accum: np.ndarray  # (H, W, 3) float64 running estimate
    seen: np.ndarray   # (H, W) bool, pixel ever observed unmasked

    @classmethod
    def create(cls, width: int, height: int) -> "BackgroundModel":
        return cls(
            accum=np.zeros((height, width, 3), dtype=np.float64),
            seen=np.zeros((height, width), dtype=bool),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.accum.shape[:2]

    def estimate_u8(self) -> np.ndarray:
        return np.clip(np.rint(self.accum), 0, 255).astype(np.uint8)


def update_background(
    model: BackgroundModel,
    frame: np.ndarray,
    joint_mask: np.ndarray,
    alpha: float = EMA_ALPHA,
) -> BackgroundModel:
    """Blend unmasked pixels into the running estimate; skip masked ones.

    A pixel's first unmasked observation seeds the estimate directly.
    Returns the same (mutated) model for chaining.
    """
    frame = validate_frame(frame)
    joint_mask = validate_mask(joint_mask, frame, "joint_mask")
    if model.shape != frame.shape[:2]:
        raise ValidationError(
            f"model shape {model.shape} does not match frame {frame.shape[:2]}"
        )
    observe = ~joint_mask
    first = observe & ~model.seen
    rest = observe & model.seen
    f = frame.astype(np.float64)
    model.accum[first] = f[first]
    model.accum[rest] = (1.0 - alpha) * model.accum[rest] + alpha * f[rest]
    model.seen[first] = True
    return model


def erase(
    frame: np.ndarray, joint_mask: np.ndarray, model: BackgroundModel
) -> np.ndarray:
    """Scrub masked pixels out of the frame.

    Masked pixels are replaced by the background estimate where one exists
    and by mid-gray where the pixel has never been observed unmasked. The
    masked input pixels are never read.
    """
    frame = validate_frame(frame)
    joint_mask = validate_mask(joint_mask, frame, "joint_mask")
    if model.shape != frame.shape[:2]:
        raise ValidationError(
            f"model shape {model.shape} does not match frame {frame.shape[:2]}"
        )
    out = frame.copy()
    # touch only masked pixels: estimate where the model has data, fill
    # constant elsewhere. One gather of the masked positions (row-major
    # flat indices) serves the model, the seen flags and the output.
    index = np.flatnonzero(joint_mask)
    masked_vals = model.accum.reshape(-1, 3)[index]
    np.rint(masked_vals, out=masked_vals)
    np.clip(masked_vals, 0, 255, out=masked_vals)
    masked_vals = masked_vals.astype(np.uint8)
    masked_vals[~model.seen.reshape(-1)[index]] = NEVER_SEEN_FILL
    out.reshape(-1, 3)[index] = masked_vals
    return out
