"""Spans and counts at the layer boundaries, recorded from outside the program.

The tracer rebinds the names that callers look up (a module global such as
`proxycam.runner.encode_png`, or a method on its class) to wrappers that
record a span per call, and puts the originals back afterwards. Nothing in
the program is edited. Spans stay in memory until the run ends.

A span is [name, start, end, parent index, frame key]. The frame key is the
(camera, frame) the work belongs to: the benchmark sets it when the edge
takes a frame, and the `infer` wrapper sets it when the cloud releases one.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from importlib import import_module

import numpy as np

from proxycam.transport.reorder import DuplicateEvent, ReorderBuffer

# (module or class, attribute its callers look up, span name); modules are
# imported by name because some packages re-export a function under the
# name of its module
_WRAPPED = (
    ("proxycam.runner", "process_frame", "edge.process_frame"),
    ("proxycam.edge.pipeline", "detect", "edge.detect"),
    ("proxycam.edge.pipeline", "track_step", "edge.track"),
    ("proxycam.edge.pipeline", "estimate_pose", "edge.pose"),
    ("proxycam.edge.pipeline", "erase", "edge.erase"),
    ("proxycam.edge.pipeline", "update_background", "edge.background"),
    ("proxycam.edge.pipeline", "render_proxy", "edge.proxy"),
    ("proxycam.edge.pipeline", "occlusion_order", "edge.order"),
    ("proxycam.edge.pipeline", "overlay", "edge.overlay"),
    ("proxycam.edge.pipeline", "embed", "edge.embed"),
    ("proxycam.runner", "encode_png", "png.encode"),
    ("proxycam.runner", "decode_png", "png.decode"),
    ("proxycam.runner", "privacy_gate", "transport.gate"),
    ("proxycam.transport.gate", "decode_png", "png.decode"),
    ("proxycam.runner", "encode", "transport.encode"),
    ("proxycam.runner", "decode", "transport.decode"),
    ("proxycam.runner", "infer", "cloud.infer"),
    ("proxycam.cloud.infer", "extract_kinematics", "cloud.kinematics"),
    ("proxycam.cloud.infer", "classify_behavior", "cloud.classify"),
    ("proxycam.runner", "render_proxies", "cloud.reconstruct"),
    ("proxycam.runner", "reconstruct", "cloud.reconstruct"),
    ("proxycam.cloud.reconstruct", "render_proxy", "cloud.proxy"),
    ("proxycam.audit.attack", "generate_scene", "sim.generate"),
    ("proxycam.audit.attack", "process_frame", "edge.process_frame"),
    ("proxycam.audit.attack", "encode_png", "png.encode"),
    ("proxycam.audit.attack", "decode_png", "png.decode"),
    ("proxycam.audit.attack", "render_proxies", "cloud.reconstruct"),
    ("proxycam.audit.leakscan", "decode_png", "png.decode"),
    (ReorderBuffer, "accept", "transport.reorder"),
    (ReorderBuffer, "flush", "transport.reorder"),
)

EDGE_SELF = ("track", "pose", "proxy", "process_frame", "erase", "background", "overlay", "embed")

PER_LAYER = (
    ("sim.generate_ms_per_frame", "ms"),
    *((f"edge.{name}.self_ms", "ms") for name in EDGE_SELF),
    ("edge.proxy.calls_per_frame", "count"),
    ("edge.state_bytes", "bytes"),
    ("png.encode.self_ms", "ms"),
    ("png.encode.calls_per_frame", "count"),
    ("png.decode.self_ms", "ms"),
    ("png.decode.calls_per_frame", "count"),
    ("transport.gate.self_ms", "ms"),
    ("transport.encode.self_ms", "ms"),
    ("transport.decode.self_ms", "ms"),
    ("transport.reorder.self_ms", "ms"),
    ("transport.reorder.hold_ms_p50", "ms"),
    ("transport.reorder.pending_max", "count"),
    ("transport.reorder.duplicates", "count"),
    ("wire.env_bytes_per_frame", "bytes"),
    ("wire.pose_bytes_per_frame", "bytes"),
    ("cloud.infer.self_ms", "ms"),
    ("cloud.kinematics.calls_per_subject", "count"),
    ("cloud.proxy.self_ms", "ms"),
    ("cloud.proxy.calls_per_frame", "count"),
    ("cloud.reconstruct.self_ms", "ms"),
    ("cloud.feed.self_ms", "ms"),
    ("audit.independence.ms_per_trial", "ms"),
    ("audit.attack.ms_per_scene", "ms"),
    ("audit.leakscan.ms_per_frame", "ms"),
)


class Tracer:
    def __init__(self, clock):
        """`clock()` gives the time in seconds that spans record."""
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.key: tuple[int, int] | None = None
        self.holds_ms: list[float] = []
        self.pending_max = 0
        self.state_bytes = 0
        self._stack: list[int] = []
        self._arrived: dict[tuple[int, int], float] = {}
        self._pending: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """A callable that runs `fn` inside a span; `after(args, result, span)` sees its result."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.key]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(args, result, record)
            return result

        return traced

    # result hooks at the boundaries whose counts the metrics need

    def _after_process_frame(self, args, result, span) -> None:
        model = args[0].background
        self.state_bytes = max(self.state_bytes, model.accum.nbytes + model.seen.nbytes)

    def _after_generate(self, args, result, span) -> None:
        self.counts["sim.frames"] += len(result[0])

    def _after_accept(self, args, result, span) -> None:
        t = args[1]
        released, events = result
        now = span[2]
        cam = t.key.camera_id
        duplicates = sum(isinstance(e, DuplicateEvent) for e in events)
        self.counts["transport.reorder.duplicates"] += duplicates
        if not duplicates:
            self._arrived[(cam, t.key.frame_id)] = span[1]
            self._pending[cam] += 1
        self._release(cam, released, now)
        self.pending_max = max(self.pending_max, self._pending[cam])

    def _after_flush(self, args, result, span) -> None:
        self._release(args[0].camera_id, result[0], span[2])

    def _release(self, cam, released, now) -> None:
        for t in released:
            arrived = self._arrived.pop((cam, t.key.frame_id), None)
            if arrived is not None:
                self.holds_ms.append((now - arrived) * 1000.0)
        self._pending[cam] -= len(released)

    def _before_infer(self, fn):
        def keyed(window, *args, **kwargs):
            self.key = (window[-1].key.camera_id, window[-1].key.frame_id)
            return fn(window, *args, **kwargs)

        return keyed

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        hooks = {
            "process_frame": self._after_process_frame,
            "generate_scene": self._after_generate,
            "accept": self._after_accept,
            "flush": self._after_flush,
        }
        saved = []
        try:
            for owner, attr, name in _WRAPPED:
                if isinstance(owner, str):
                    owner = import_module(owner)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                wrapped = self.wrap(name, original, hooks.get(attr))
                if attr == "infer":
                    wrapped = self._before_infer(wrapped)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self time (s), inclusive time (s) and call count per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            inclusive[name] += end - start
            calls[name] += 1
        return own, inclusive, calls

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, key in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "key": list(key) if key else None},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def per_layer_metrics(tracer: Tracer, totals: dict) -> dict[str, dict]:
    """Per-layer figures from the spans and the run's totals.

    `totals` holds rounds, cloud_frames, subjects (subject-frames in the
    reports), wire_env_bytes, wire_pose_bytes, packets, trials,
    attack_scenes and leak_frames. Duplicates are per round. Times are per frame the edge processed (process_frame
    calls) on the edge side and per frame the cloud released on the cloud
    side.
    """
    own, inclusive, calls = tracer.totals()
    edge_n = max(calls["edge.process_frame"], 1)
    cloud_n = max(totals["cloud_frames"], 1)
    packets = max(totals["packets"], 1)

    def ms(name, n):
        return own.get(name, 0.0) * 1000.0 / n

    def whole_ms(name, n):
        return inclusive.get(name, 0.0) * 1000.0 / n

    values = {
        "sim.generate_ms_per_frame": ms("sim.generate", max(tracer.counts["sim.frames"], 1)),
        "edge.proxy.calls_per_frame": calls["edge.proxy"] / edge_n,
        "edge.state_bytes": tracer.state_bytes,
        "png.encode.self_ms": ms("png.encode", edge_n),
        "png.encode.calls_per_frame": calls["png.encode"] / edge_n,
        "png.decode.self_ms": ms("png.decode", edge_n),
        "png.decode.calls_per_frame": calls["png.decode"] / edge_n,
        "transport.gate.self_ms": ms("transport.gate", edge_n),
        "transport.encode.self_ms": ms("transport.encode", edge_n),
        "transport.decode.self_ms": ms("transport.decode", cloud_n),
        "transport.reorder.self_ms": ms("transport.reorder", cloud_n),
        "transport.reorder.hold_ms_p50": (
            float(np.percentile(tracer.holds_ms, 50)) if tracer.holds_ms else 0.0
        ),
        "transport.reorder.pending_max": tracer.pending_max,
        "transport.reorder.duplicates": (
            tracer.counts["transport.reorder.duplicates"] / max(totals["rounds"], 1)
        ),
        "wire.env_bytes_per_frame": totals["wire_env_bytes"] / packets,
        "wire.pose_bytes_per_frame": totals["wire_pose_bytes"] / packets,
        "cloud.infer.self_ms": ms("cloud.infer", cloud_n),
        "cloud.kinematics.calls_per_subject": (
            calls["cloud.kinematics"] / max(totals["subjects"], 1)
        ),
        "cloud.proxy.self_ms": ms("cloud.proxy", cloud_n),
        "cloud.proxy.calls_per_frame": calls["cloud.proxy"] / cloud_n,
        "cloud.reconstruct.self_ms": ms("cloud.reconstruct", cloud_n),
        "cloud.feed.self_ms": ms("cloud.feed", cloud_n),
        "audit.independence.ms_per_trial": whole_ms(
            "audit.independence", max(totals["trials"], 1)
        ),
        "audit.attack.ms_per_scene": whole_ms("audit.attack", max(totals["attack_scenes"], 1)),
        "audit.leakscan.ms_per_frame": whole_ms("audit.leakscan", max(totals["leak_frames"], 1)),
    }
    for name in EDGE_SELF:
        values[f"edge.{name}.self_ms"] = ms(f"edge.{name}", edge_n)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
