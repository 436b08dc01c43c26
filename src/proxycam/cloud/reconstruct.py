"""Cloud-side proxy rendering and anonymized scene reconstruction.

The cloud takes the edge's path from pose to pixels (`proxy.py`) as it
is: the renderer reads only wire fields, and `reconstruct` is the edge's
compositor, so a reconstruction is byte-equal to the edge composite of
the same tuple. Environment pixels outside the proxy support pass through
untouched.
"""

from __future__ import annotations

from ..errors import DegeneratePoseError
from ..proxy import ProxyReuse, SkeletalProxy, overlay as reconstruct, render_proxy
from ..skeleton import KeypointSet

__all__ = ["reconstruct", "render_proxies"]


def render_proxies(
    poses: list[tuple[int, KeypointSet]],
    order: list[int],
    frame_size: tuple[int, int],
    reuse: ProxyReuse | None = None,
) -> list[SkeletalProxy]:
    """Every subject's proxy, back to front, for `reconstruct`.

    frame_size is (width, height); `order` must name the pose subjects,
    which the codec checks on decode. A subject the renderer cannot draw
    (fewer than two visible joints, or nothing inside the frame) is left
    out, as the edge leaves it out of its composite. `reuse` holds the
    previous proxies of the same stream; it is left holding this frame's.
    """
    by_id = dict(poses)
    if reuse is None:
        reuse = ProxyReuse()
    reuse.retain(by_id)
    proxies = []
    for sid in order:
        try:
            proxies.append(reuse.render(sid, by_id[sid], frame_size, render_proxy))
        except DegeneratePoseError:
            continue
    return proxies
