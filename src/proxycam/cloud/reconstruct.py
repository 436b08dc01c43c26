"""Cloud-side proxy rendering and anonymized scene reconstruction.

The cloud takes the edge's path from pose to pixels (`proxy.py`) as it
is: the renderer and the back-to-front order read only wire fields, and
`reconstruct` is the edge's compositor, so a reconstruction is byte-equal
to the edge composite of the same tuple. Environment pixels outside the
proxy support pass through untouched.
"""

from __future__ import annotations

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
    `reuse` holds the previous proxies of the same stream; it draws this
    frame's new ones in one `render_proxy` call and is left holding them.
    """
    if reuse is None:
        reuse = ProxyReuse()
    poses = dict(poses)
    proxies = reuse.render(poses, frame_size, render_proxy)
    drawn = {sid: poses[sid] for sid in proxies}
    return [proxies[sid] for sid in occlusion_order(drawn)]
