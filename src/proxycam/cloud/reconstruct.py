"""Cloud-side proxy rendering and anonymized scene reconstruction.

The proxy renderer here is literally the edge one (shared module); the
only difference is that the detector box is unavailable on this side, so
the per-subject box is derived from the keypoint extent. Reconstruction
is a deterministic alpha composite: environment pixels outside the proxy
support pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..proxy import ProxyReuse, keypoint_extent_box, render_proxy
from ..raster import paste_rgba_over_rgba, validate_frame
from ..skeleton import KeypointSet
from ..transport.model import SyncKey


@dataclass(frozen=True)
class ReconstructedScene:
    raster: np.ndarray
    key: SyncKey


def render_proxies(
    poses: list[tuple[int, KeypointSet]],
    order: list[int],
    canvas_size: tuple[int, int],
    reuse: ProxyReuse | None = None,
) -> np.ndarray:
    """Compose every subject's proxy onto a transparent canvas, back to
    front. canvas_size is (width, height). `reuse` holds the previous
    proxies of the same stream; it is left holding this frame's."""
    by_id = dict(poses)
    if sorted(order) != sorted(by_id):
        raise ValidationError(
            f"order {sorted(order)} does not match pose subjects {sorted(by_id)}"
        )
    width, height = canvas_size
    canvas = np.zeros((height, width, 4), dtype=np.uint8)
    if reuse is None:
        reuse = ProxyReuse()
    reuse.retain(by_id)
    for sid in order:
        pose = by_id[sid]
        proxy = reuse.render(
            sid, pose, pose.head_yaw, keypoint_extent_box(pose), canvas_size, render_proxy
        )
        paste_rgba_over_rgba(canvas, proxy.raster, proxy.anchor[0], proxy.anchor[1])
    return canvas


def reconstruct(env: np.ndarray, proxy_image: np.ndarray) -> np.ndarray:
    """Alpha-composite the proxy canvas over the environment image."""
    env = validate_frame(env, "env")
    proxy_image = np.asarray(proxy_image)
    if proxy_image.shape != (*env.shape[:2], 4) or proxy_image.dtype != np.uint8:
        raise ValidationError(
            f"proxy image must be {(*env.shape[:2], 4)} uint8, got "
            f"{proxy_image.shape} {proxy_image.dtype}"
        )
    out = env.copy()
    opaque = proxy_image[:, :, 3] > 0
    out[opaque] = proxy_image[:, :, :3][opaque]
    return out
