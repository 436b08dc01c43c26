"""Pre-transmission privacy gate.

The gate enforces the one rule nothing else before the sink does: the
environment image decodes, in `encode_png`'s dialect, to the negotiated
stream resolution. Poses need no rule here: a joint is visible or not,
and `encode` refuses non-finite points before a byte leaves. Semantic
leakage (does the background still contain a person?) is out of its
reach; that is what the audit module attacks.
"""

from __future__ import annotations

from ..errors import GateViolationError, ValidationError
from ..pngio import decode_png
from .model import RepresentationTuple


def privacy_gate(t: RepresentationTuple, stream_resolution: tuple[int, int]) -> None:
    """Raise GateViolationError unless the env image is a PNG of
    stream_resolution, which is (width, height)."""
    try:
        decode_png(t.env_png, stream_resolution)
    except ValidationError as exc:
        raise GateViolationError(f"env image refused: {exc}") from exc
