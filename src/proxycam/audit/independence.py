"""Empirical falsification test for erasure independence.

The scrubber claims its output never depends on masked input pixels. Each
trial builds a random frame, a random mask (rectangles plus elliptical
blobs, 1-60% coverage), and a random background-model state, then
randomizes the frame inside the mask and checks the two scrub outputs are
byte-identical. Any difference is a leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ValidationError
from ..edge.background import BackgroundModel, erase

MIN_COVERAGE = 0.01
MAX_COVERAGE = 0.60


@dataclass(frozen=True)
class IndependenceResult:
    trials: int
    failures: int
    first_failure_trial: int | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _add_ellipse(mask: np.ndarray, cx: float, cy: float, ax: float, ay: float) -> None:
    height, width = mask.shape
    x0 = max(0, int(cx - ax))
    x1 = min(width, int(cx + ax) + 1)
    y0 = max(0, int(cy - ay))
    y1 = min(height, int(cy + ay) + 1)
    if x1 <= x0 or y1 <= y0:
        return
    dx = (np.arange(x0, x1) - cx) / ax
    dy = (np.arange(y0, y1) - cy) / ay
    mask[y0:y1, x0:x1] |= dy[:, None] ** 2 + dx[None, :] ** 2 <= 1.0


def random_mask(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """Random union of rectangles and ellipses with bounded coverage."""
    for _ in range(32):
        mask = np.zeros((height, width), dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            w = int(rng.integers(4, max(5, width // 2)))
            h = int(rng.integers(4, max(5, height // 2)))
            x0 = int(rng.integers(0, max(1, width - w)))
            y0 = int(rng.integers(0, max(1, height - h)))
            mask[y0 : y0 + h, x0 : x0 + w] = True
        for _ in range(int(rng.integers(1, 3))):
            _add_ellipse(
                mask,
                cx=float(rng.uniform(0, width)),
                cy=float(rng.uniform(0, height)),
                ax=float(rng.uniform(3, width / 4)),
                ay=float(rng.uniform(3, height / 4)),
            )
        coverage = mask.mean()
        if MIN_COVERAGE <= coverage <= MAX_COVERAGE:
            return mask
    # extremely unlikely fallback with guaranteed in-range coverage
    mask = np.zeros((height, width), dtype=bool)
    mask[: height // 2, : width // 2] = True
    return mask


def mask_independence_audit(
    trials: int,
    seed: int,
    width: int = 320,
    height: int = 240,
    erase_fn: Callable = erase,
) -> IndependenceResult:
    """Run the randomized independence trials.

    `erase_fn` exists so tests can inject a deliberately broken scrubber
    and confirm the audit catches it.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    failures = 0
    first_failure: int | None = None
    # the model state is drawn into buffers every trial reuses, with the
    # draws of rng.uniform(0.0, 255.0, ...) and rng.random(...) < 0.5:
    # uniform is low + (high - low) * random, and low is 0
    model = BackgroundModel.create(width, height)
    draw = np.empty((height, width))
    for trial in range(trials):
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        mask = random_mask(rng, width, height)
        rng.random(out=model.accum)
        model.accum *= 255.0
        rng.random(out=draw)
        np.less(draw, 0.5, out=model.seen)
        altered = frame.copy()
        # flat indices keep the row-major order of the boolean index
        index = np.flatnonzero(mask)
        altered.reshape(-1, 3)[index] = rng.integers(
            0, 256, (index.size, 3), dtype=np.uint8
        )

        out_a = erase_fn(frame, mask, model)
        out_b = erase_fn(altered, mask, model)
        if not np.array_equal(out_a, out_b):
            failures += 1
            if first_failure is None:
                first_failure = trial
    return IndependenceResult(
        trials=trials, failures=failures, first_failure_trial=first_failure
    )
