"""Cloud-side proxy rendering and anonymized scene reconstruction.

The cloud takes the edge's path from pose to pixels (`proxy.py`) as it
is: the renderer and the back-to-front order read only wire fields, and
`reconstruct` is the edge's compositor, so a reconstruction is byte-equal
to the edge composite of the same tuple. Environment pixels outside the
proxy support pass through untouched.
"""

from __future__ import annotations

from ..errors import DegeneratePoseError
from ..proxy import (
    ProxyReuse,
    SkeletalProxy,
    occlusion_order,
    overlay as reconstruct,
    render_proxy,
)
from ..skeleton import KeypointSet

__all__ = ["reconstruct", "render_proxies"]


def render_proxies(
    poses: list[tuple[int, KeypointSet]],
    frame_size: tuple[int, int],
    reuse: ProxyReuse | None = None,
) -> list[SkeletalProxy]:
    """Every subject's proxy, back to front, for `reconstruct`.

    frame_size is (width, height). A subject the renderer cannot draw
    (fewer than two visible joints, or nothing inside the frame) is left
    out, as the edge leaves it out of its composite; the drawn subjects
    come in `occlusion_order` of their poses, the edge's paint order.
    `reuse` holds the previous proxies of the same stream; it is left
    holding this frame's.
    """
    if reuse is None:
        reuse = ProxyReuse()
    reuse.retain(sid for sid, _ in poses)
    drawn: dict[int, KeypointSet] = {}
    proxies: dict[int, SkeletalProxy] = {}
    for sid, pose in poses:
        try:
            proxies[sid] = reuse.render(sid, pose, frame_size, render_proxy)
        except DegeneratePoseError:
            continue
        drawn[sid] = pose
    return [proxies[sid] for sid in occlusion_order(drawn)]
