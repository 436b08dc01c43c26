"""Axis-aligned boxes and overlap arithmetic."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoundingBox:
    """Pixel-space box: top-left corner plus extent."""

    x: float
    y: float
    w: float
    h: float

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return max(0.0, self.w) * max(0.0, self.h)

    def shifted(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x + dx, self.y + dy, self.w, self.h)

    def scaled(self, factor: float) -> "BoundingBox":
        """Grow (or shrink) about the center by `factor`."""
        cx, cy = self.center
        nw, nh = self.w * factor, self.h * factor
        return BoundingBox(cx - nw / 2.0, cy - nh / 2.0, nw, nh)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    x1 = max(a.x, b.x)
    y1 = max(a.y, b.y)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    inter = max(0.0, x2 - x1) * max(0.0, y2 - y1)
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0
