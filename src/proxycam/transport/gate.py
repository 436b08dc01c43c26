"""Pre-transmission privacy gate.

The gate checks structural rules a tuple must satisfy before it may leave
the edge: the environment image decodes to the negotiated resolution, and
pose confidences stay in range. The tuple has no reserved or auxiliary
field to check; the codec writes version 2's reserved flags byte as zero.
Semantic leakage (does the background still contain a person?) is out of
its reach; that is what the audit module attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..pngio import decode_png
from .model import RepresentationTuple


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


@dataclass(frozen=True)
class GateResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def privacy_gate(
    t: RepresentationTuple, stream_resolution: tuple[int, int]
) -> GateResult:
    """Check a tuple against the structural privacy rules.

    stream_resolution is (width, height). Returns every violated rule;
    the caller must not transmit unless the result is ok.
    """
    violations: list[Violation] = []

    expected_w, expected_h = stream_resolution
    try:
        env = decode_png(t.env_png)
    except ValidationError as exc:
        violations.append(Violation("resolution", f"env image does not decode: {exc}"))
    else:
        h, w = env.shape[:2]
        if (w, h) != (expected_w, expected_h):
            violations.append(
                Violation(
                    "resolution",
                    f"env image is {w}x{h}, stream is {expected_w}x{expected_h}",
                )
            )

    for sid, kp in t.poses:
        conf = kp.joints[:, 2]
        if np.any(conf < 0.0) or np.any(conf > 1.0) or not np.all(np.isfinite(conf)):
            violations.append(
                Violation("confidence", f"subject {sid} has confidences outside [0, 1]")
            )

    return GateResult(violations=tuple(violations))
