"""Process wiring: scene to edge to packets, packets to cloud to reports.

Timestamps are synthetic (frame_id times the frame period), so a run is a
pure function of config and seed; logs carry wall-clock timings but live
in separate files that are excluded from byte-reproducibility claims.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .cloud.infer import INFER_WINDOW, BehaviorReport, infer
from .cloud.reconstruct import reconstruct, render_proxies
from .config import RunConfig
from .edge.pipeline import EdgeOutput, EdgeState, process_frame
from .errors import GateViolationError, ValidationError
from .metrics import evaluate_behavior
from .pngio import decode_png, encode_png
from .proxy import ProxyReuse
from .sim.generate import generate_scene, write_ground_truth_jsonl
from .sim.spec import SceneSpec, load_scene_spec
from .transport.codec import decode, encode
from .transport.gate import privacy_gate
from .transport.model import RepresentationTuple, SyncKey
from .transport.reorder import DuplicateEvent, GapEvent, ReorderBuffer


def us_per_frame(fps: float) -> int:
    return max(1, round(1_000_000 / fps))


def build_tuple(
    output: EdgeOutput, camera_id: int, frame_id: int, timestamp_us: int
) -> RepresentationTuple:
    return RepresentationTuple(
        key=SyncKey(camera_id=camera_id, frame_id=frame_id, timestamp_us=timestamp_us),
        env_png=encode_png(output.desensitized),
        poses=list(output.poses),
    )


class JsonlLog:
    def __init__(self, path: Path | None):
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def write(self, event: str, **fields) -> None:
        if self._fh is None:
            return
        record = {"event": event, **fields, "wall_ms": time.time() * 1000.0}
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def run_edge(
    config: RunConfig,
    scene: SceneSpec,
    sink: Callable[[bytes], None],
    log: JsonlLog | None = None,
    collect_outputs: bool = False,
    pregenerated: tuple[list, list] | None = None,
) -> dict:
    """Drive the edge over a scene, gate every tuple, emit packets.

    The gate refusing a tuple aborts the run with GateViolationError.
    Returns run stats, and the per-frame EdgeOutput list when
    `collect_outputs`, for in-process consumers that compare composites:
    an output draws its composite when read, outside this loop.
    """
    frames, gts = pregenerated if pregenerated is not None else generate_scene(scene)
    state = EdgeState(scene.width, scene.height, params=config.edge, seed=config.seed)
    period = us_per_frame(config.fps)
    log = log or JsonlLog(None)

    outputs: list[EdgeOutput] = []
    packets = 0
    for frame_id, (frame, gt) in enumerate(zip(frames, gts)):
        t0 = time.perf_counter()
        output = process_frame(state, frame, gt)
        t = build_tuple(output, config.camera_id, frame_id, frame_id * period)
        try:
            privacy_gate(t, (scene.width, scene.height))
        except GateViolationError as exc:
            log.write("gate_violation", frame_id=frame_id, error=str(exc))
            raise
        sink(encode(t))
        packets += 1
        if collect_outputs:
            outputs.append(output)
        log.write(
            "edge_frame",
            camera_id=config.camera_id,
            frame_id=frame_id,
            subjects=len(output.poses),
            ms=(time.perf_counter() - t0) * 1000.0,
        )
    return {"frames": len(frames), "packets": packets, "outputs": outputs}


@dataclass
class CloudRunner:
    """Decode, order, infer, and reconstruct a packet stream.

    A packet that fails the wire codec, or whose env image is not in
    `encode_png`'s dialect, is counted in `malformed` and logged; it gets
    no report or reconstruction and does not enter the inference window,
    and the other frames go on as before. A camera's first decodable env
    image, in release order, pins its size; a later image of any other
    size is malformed too, refused before it is inflated. Every
    reconstruction is written to `out_dir` as a PNG; the rest of the
    fields are the run's state, which callers read but do not set.
    """

    config: RunConfig
    out_dir: Path
    log: JsonlLog | None = None

    reports: dict[tuple[int, int], BehaviorReport] = field(default_factory=dict, init=False)
    recon_files: list[str] = field(default_factory=list, init=False)
    events: list = field(default_factory=list, init=False)
    malformed: int = field(default=0, init=False)
    released: int = field(default=0, init=False)
    _buffers: dict[int, ReorderBuffer] = field(default_factory=dict, init=False)
    _windows: dict[int, deque] = field(default_factory=dict, init=False)
    _proxies: dict[int, ProxyReuse] = field(default_factory=dict, init=False)
    _sizes: dict[int, tuple[int, int]] = field(default_factory=dict, init=False)

    def feed(self, packet: bytes) -> None:
        try:
            t = decode(packet)
        except ValidationError as exc:
            self._note_malformed(exc)
            return
        cam = t.key.camera_id
        buffer = self._buffers.get(cam)
        if buffer is None:
            buffer = ReorderBuffer()
            self._buffers[cam] = buffer
            self._windows[cam] = deque(maxlen=INFER_WINDOW)
            self._proxies[cam] = ProxyReuse()
        released, events = buffer.accept(t)
        self._note_events(events)
        for ready in released:
            self._process(ready)

    def finish(self) -> None:
        for cam, buffer in self._buffers.items():
            released, events = buffer.flush()
            self._note_events(events)
            for ready in released:
                self._process(ready)

    def _note_events(self, events) -> None:
        self.events.extend(events)
        if self.log:
            for event in events:
                if isinstance(event, GapEvent):
                    self.log.write("gap", camera_id=event.camera_id, frame_id=event.frame_id)
                elif isinstance(event, DuplicateEvent):
                    self.log.write(
                        "duplicate", camera_id=event.camera_id, frame_id=event.frame_id
                    )

    def _note_malformed(self, exc: Exception, **key) -> None:
        self.malformed += 1
        if self.log:
            self.log.write("malformed", **key, error=str(exc))

    def _process(self, t: RepresentationTuple) -> None:
        cam, fid = t.key.camera_id, t.key.frame_id
        try:
            env = decode_png(t.env_png, self._sizes.get(cam))
        except ValidationError as exc:
            self._note_malformed(exc, camera_id=cam, frame_id=fid)
            return
        window = self._windows[cam]
        window.append(t)
        report = infer(list(window))
        self.reports[(cam, fid)] = report
        self.released += 1

        size = self._sizes.setdefault(cam, (env.shape[1], env.shape[0]))
        proxies = render_proxies(t.poses, size, self._proxies[cam])
        scene = reconstruct(env, proxies)
        name = f"cam{cam}_frame{fid}.png"
        (self.out_dir / name).write_bytes(encode_png(scene))
        self.recon_files.append(name)

    def gap_frame_ids(self) -> list[int]:
        """The frame ids declared dropped, as `summary.json` lists them."""
        return [e.frame_id for e in self.events if isinstance(e, GapEvent)]

    def report_records(self) -> list[dict]:
        records = []
        for (cam, fid) in sorted(self.reports):
            report = self.reports[(cam, fid)]
            records.append(
                {
                    "camera_id": cam,
                    "frame_id": fid,
                    "timestamp_us": report.key.timestamp_us,
                    "subjects": [
                        {
                            "subject_id": s.subject_id,
                            "box": [s.box.x, s.box.y, s.box.w, s.box.h],
                            "label": s.label,
                            "confidence": s.confidence,
                        }
                        for s in report.subjects
                    ],
                }
            )
        return records

    def write_reports(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.report_records():
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def run_sim(config: RunConfig) -> dict:
    """Generate a scene to disk: frame PNGs, ground truth, background."""
    scene = load_scene_spec(config.scene)
    frames, gts = generate_scene(scene)
    out = Path(config.out_dir)
    frames_dir = out / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)

    files = []
    for i, frame in enumerate(frames):
        name = f"frames/frame_{i:06d}.png"
        (out / name).write_bytes(encode_png(frame))
        files.append(name)
    (out / "background.png").write_bytes(encode_png(gts[0].background))
    files.append("background.png")
    write_ground_truth_jsonl(gts, out / "ground_truth.jsonl")
    files.append("ground_truth.jsonl")

    summary = {
        "command": "sim",
        "scene": str(config.scene),
        "frames": len(frames),
        "actors": len(scene.actors),
        "files": files,
    }
    _write_summary(out, summary)
    return summary


def run_e2e(config: RunConfig) -> dict:
    """Edge and cloud wired in-process through the real codec."""
    scene = load_scene_spec(config.scene)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    recon_dir = out / "recon"
    recon_dir.mkdir(exist_ok=True)

    edge_log = JsonlLog(out / "edge_log.jsonl")
    cloud_log = JsonlLog(out / "cloud_log.jsonl")
    started = time.perf_counter()

    cloud = CloudRunner(config=config, out_dir=recon_dir, log=cloud_log)
    packet_bytes = 0
    packet_digest = hashlib.sha256()

    def sink(packet: bytes) -> None:
        nonlocal packet_bytes
        packet_bytes += len(packet)
        packet_digest.update(packet)
        cloud.feed(packet)

    generated = generate_scene(scene)
    try:
        edge_stats = run_edge(
            config, scene, sink, log=edge_log, collect_outputs=True,
            pregenerated=generated,
        )
        cloud.finish()
    finally:
        edge_log.close()
        cloud_log.close()

    # in-process equivalence check: cloud reconstruction vs edge composite
    gts = generated[1]
    mismatches = 0
    for frame_id, output in enumerate(edge_stats["outputs"]):
        name = f"cam{config.camera_id}_frame{frame_id}.png"
        recon = decode_png((recon_dir / name).read_bytes())
        if not np.array_equal(recon, output.composite):
            mismatches += 1

    reports_by_frame = {
        fid: report
        for (cam, fid), report in cloud.reports.items()
        if cam == config.camera_id
    }
    metrics = evaluate_behavior(scene, gts, reports_by_frame)
    cloud.write_reports(out / "reports.jsonl")

    elapsed = time.perf_counter() - started
    summary = {
        "command": "e2e",
        "scene": str(config.scene),
        "seed": config.seed,
        "frames": edge_stats["frames"],
        "packets": edge_stats["packets"],
        "packet_bytes": packet_bytes,
        "packets_sha256": packet_digest.hexdigest(),
        "reports": len(cloud.reports),
        "gap_events": cloud.gap_frame_ids(),
        "render_mismatches": mismatches,
        "metrics": metrics.to_dict(),
        "elapsed_s": elapsed,
        "files": ["reports.jsonl", "edge_log.jsonl", "cloud_log.jsonl"]
        + [f"recon/{name}" for name in cloud.recon_files],
        "deterministic_outputs": ["reports.jsonl"]
        + [f"recon/{name}" for name in cloud.recon_files],
    }
    _write_summary(out, summary)
    return summary


def _write_summary(out: Path, summary: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    summary = {**summary, "files": summary.get("files", []) + ["summary.json"]}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
