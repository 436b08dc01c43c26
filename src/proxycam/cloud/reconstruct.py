"""Cloud-side proxy rendering and anonymized scene reconstruction.

The cloud takes the path from pose to pixels (`proxy.py`) as it is: the
renderer and the back-to-front order read only wire fields, and
`reconstruct` is `proxy.overlay`, so a reconstruction is byte-equal to the
edge composite of the same tuple. Environment pixels outside the proxy
support pass through untouched.
"""

from __future__ import annotations

from ..proxy import overlay as reconstruct, render_proxies
# unused here; perfbench/trace.py wraps the name proxycam.cloud.reconstruct.render_proxy
from ..proxy import render_proxy

__all__ = ["reconstruct", "render_proxies"]
