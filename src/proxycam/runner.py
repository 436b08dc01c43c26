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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .cloud.infer import INFER_WINDOW, BehaviorReport, infer
from .cloud.reconstruct import reconstruct, render_proxies
from .config import RunConfig
from .edge.pipeline import EdgeOutput, EdgeState, process_frame
from .errors import GateViolationError, ValidationError
from .metrics import evaluate_behavior
from .pngio import RECONSTRUCTION_LEVEL, WIRE_LEVEL, decode_png, encode_png
from .proxy import SkeletalProxy, pose_key
from .sim.generate import generate_scene, write_ground_truth_jsonl
from .sim.spec import SceneSpec, load_scene_spec
from .skeleton import measure_poses
from .transport.codec import decode, encode
from .transport.gate import privacy_gate
from .transport.model import RepresentationTuple, SyncKey
from .transport.reorder import GapEvent, ReorderBuffer


def us_per_frame(fps: float) -> int:
    return max(1, round(1_000_000 / fps))


def recon_name(camera_id: int, frame_id: int) -> str:
    return f"cam{camera_id}_frame{frame_id}.png"


def build_tuple(
    output: EdgeOutput,
    camera_id: int,
    frame_id: int,
    timestamp_us: int,
    encode_env: Callable[[np.ndarray], bytes] | None = None,
) -> RepresentationTuple:
    """The tuple of one edge output. `encode_env` turns the scrubbed image
    into PNG bytes: a stream's `EnvPngMemo`, or `encode_png` at
    `WIRE_LEVEL` by default."""
    image = output.desensitized
    return RepresentationTuple(
        key=SyncKey(camera_id=camera_id, frame_id=frame_id, timestamp_us=timestamp_us),
        env_png=encode_env(image) if encode_env else encode_png(image, WIRE_LEVEL),
        poses=list(output.poses),
    )


class EnvPngMemo:
    """`encode_png` for one stream's scrubbed images, run once per distinct image.

    `encode_png` is canonical, so an image whose pixels equal the last one
    encoded takes that image's bytes; `hit` says whether the last call
    did. The memo compares against its own copy of that image, so writing
    into a caller's array later cannot change a later packet.
    """

    def __init__(self) -> None:
        self._image: np.ndarray | None = None
        self._png = b""
        self.hit = False

    def __call__(self, image: np.ndarray) -> bytes:
        last = self._image
        self.hit = last is not None and image.dtype == last.dtype and np.array_equal(image, last)
        if not self.hit:
            self._png = encode_png(image, WIRE_LEVEL)
            self._image = image.copy()
        return self._png


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

    A scrubbed image equal to the previous frame's takes that frame's PNG
    bytes (`EnvPngMemo`) instead of a second encode; every packet still
    carries its whole image. The gate's verdict is a function of the env
    bytes and the stream size alone, so a tuple whose bytes equal those
    the gate passed last, which is every tuple that took the previous
    frame's bytes, is not decoded again; every other tuple is gated. The
    gate refusing a tuple aborts the run with GateViolationError.
    Returns run stats, among them `env_png_reused`, the frames that took
    the previous bytes, and the per-frame EdgeOutput list when
    `collect_outputs`, for in-process consumers that compare composites:
    an output draws its composite when read, outside this loop.
    """
    frames, gts = pregenerated if pregenerated is not None else generate_scene(scene)
    state = EdgeState(scene.width, scene.height, params=config.edge, seed=config.seed)
    period = us_per_frame(config.fps)
    log = log or JsonlLog(None)

    outputs: list[EdgeOutput] = []
    packets = reused = 0
    env_png = EnvPngMemo()
    passed: bytes | None = None  # the env bytes the gate passed last
    for frame_id, (frame, gt) in enumerate(zip(frames, gts)):
        t0 = time.perf_counter()
        output = process_frame(state, frame, gt)
        t = build_tuple(output, config.camera_id, frame_id, frame_id * period, env_png)
        if t.env_png != passed:
            try:
                privacy_gate(t, (scene.width, scene.height))
            except GateViolationError as exc:
                log.write("gate_violation", frame_id=frame_id, error=str(exc))
                raise
            passed = t.env_png
        sink(encode(t))
        packets += 1
        reused += env_png.hit
        if collect_outputs:
            outputs.append(output)
        log.write(
            "edge_frame",
            camera_id=config.camera_id,
            frame_id=frame_id,
            subjects=len(output.poses),
            env_reused=env_png.hit,
            ms=(time.perf_counter() - t0) * 1000.0,
        )
    return {"frames": len(frames), "packets": packets, "env_png_reused": reused, "outputs": outputs}


@dataclass
class _Drawn:
    """The last frame a camera drew: the env bytes and each pose's
    `pose_key` by subject id (all that its reconstruction reads, since the
    camera's size is pinned), the drawable subjects' proxies, and the
    reconstruction PNG. The empty record's env bytes, None, match no frame."""

    env_png: bytes | None = None
    keys: dict[int, tuple] = field(default_factory=dict)
    proxies: dict[int, SkeletalProxy] = field(default_factory=dict)
    png: bytes = b""


@dataclass
class _Camera:
    """What the cloud holds for one camera: its reorder buffer, its
    inference window of (tuple, `measure_poses` of its poses) pairs, the
    last frame it drew, and, once its first env image decodes, the size
    that image pinned."""

    buffer: ReorderBuffer = field(default_factory=ReorderBuffer)
    window: deque = field(default_factory=lambda: deque(maxlen=INFER_WINDOW))
    drawn: _Drawn = field(default_factory=_Drawn)
    size: tuple[int, int] | None = None


@dataclass
class CloudRunner:
    """Decode, order, infer, and reconstruct a packet stream.

    A packet that fails the wire codec, or whose env image is not in
    `encode_png`'s dialect, is counted in `malformed` and logged; it gets
    no report or reconstruction and does not enter the inference window,
    and the other frames go on as before. A camera's first decodable env
    image, in release order, pins its size; a later image of any other
    size is malformed too, refused before it is inflated. Every
    reconstruction is written to `out_dir` as a PNG, and
    `reconstruction_bytes` sums their sizes. A released tuple's poses are
    measured once (`measure_poses`) as it enters its camera's inference
    window; `infer` and `render_proxies` read the same records, which leave
    the window with the tuple.

    Each camera keeps one record of the last frame it drew (`_Drawn`). A
    released frame whose env bytes and poses equal, bit for bit, the
    record's takes its PNG bytes with no decode, draw or encode, and is
    counted in `reconstructions_reused`; it still enters the inference
    window and gets its report. Any other frame keeps the record's proxy
    of each subject whose pose repeats (`proxies_reused`) and draws the
    rest in one `render_proxy` call (`proxies_drawn`). The rest of the
    fields are the run's state, which callers read but do not set.
    """

    config: RunConfig
    out_dir: Path
    log: JsonlLog = field(default_factory=lambda: JsonlLog(None))

    reports: dict[tuple[int, int], BehaviorReport] = field(default_factory=dict, init=False)
    events: list = field(default_factory=list, init=False)
    malformed: int = field(default=0, init=False)
    reconstructions_reused: int = field(default=0, init=False)
    proxies_drawn: int = field(default=0, init=False)
    proxies_reused: int = field(default=0, init=False)
    reconstruction_bytes: int = field(default=0, init=False)
    _cameras: dict[int, _Camera] = field(default_factory=dict, init=False)

    @property
    def recon_files(self) -> list[str]:
        """The reconstructions written, in release order: one per report."""
        return [recon_name(cam, fid) for cam, fid in self.reports]

    def feed(self, packet: bytes) -> None:
        try:
            t = decode(packet)
        except ValidationError as exc:
            self._note_malformed(exc)
            return
        camera = self._cameras.get(t.key.camera_id)
        if camera is None:
            camera = self._cameras[t.key.camera_id] = _Camera()
        self._release(camera, *camera.buffer.accept(t))

    def finish(self) -> None:
        for camera in self._cameras.values():
            self._release(camera, *camera.buffer.flush())

    def _release(self, camera: _Camera, released: list, events: list) -> None:
        self.events.extend(events)
        for event in events:
            kind = "gap" if isinstance(event, GapEvent) else "duplicate"
            self.log.write(kind, **asdict(event))
        for t in released:
            self._process(camera, t)

    def _note_malformed(self, exc: Exception, **key) -> None:
        self.malformed += 1
        self.log.write("malformed", **key, error=str(exc))

    def _process(self, camera: _Camera, t: RepresentationTuple) -> None:
        cam, fid = t.key.camera_id, t.key.frame_id
        keys = {sid: pose_key(pose) for sid, pose in t.poses}
        last = camera.drawn
        repeat = last.env_png == t.env_png and last.keys == keys
        if not repeat:
            try:
                env = decode_png(t.env_png, camera.size)
            except ValidationError as exc:
                self._note_malformed(exc, camera_id=cam, frame_id=fid)
                return
        geometry = measure_poses(t.poses)
        camera.window.append((t, geometry))
        self.reports[(cam, fid)] = infer(*zip(*camera.window))

        if repeat:
            self.reconstructions_reused += 1
        else:
            if camera.size is None:
                camera.size = (env.shape[1], env.shape[0])
            kept = {s: p for s, p in last.proxies.items() if keys.get(s) == last.keys[s]}
            self.proxies_reused += len(kept)
            self.proxies_drawn += len(keys) - len(kept)
            proxies = render_proxies(t.poses, geometry, camera.size, kept)
            png = encode_png(reconstruct(env, proxies), RECONSTRUCTION_LEVEL)
            camera.drawn = _Drawn(t.env_png, keys, kept, png)
        (self.out_dir / recon_name(cam, fid)).write_bytes(camera.drawn.png)
        self.reconstruction_bytes += len(camera.drawn.png)

    def summary(self) -> dict:
        """The cloud's fields of `summary.json`, for `cloud` and `e2e` alike;
        `gap_events` lists each run of frames declared dropped as
        `[camera_id, first_frame_id, count]`."""
        return {
            "reports": len(self.reports),
            "malformed_packets": self.malformed,
            "reconstructions_reused": self.reconstructions_reused,
            "proxies_drawn": self.proxies_drawn,
            "proxies_reused": self.proxies_reused,
            "reconstruction_bytes": self.reconstruction_bytes,
            "gap_events": [
                [e.camera_id, e.frame_id, e.count] for e in self.events if isinstance(e, GapEvent)
            ],
        }

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
        (out / name).write_bytes(encode_png(frame, WIRE_LEVEL))
        files.append(name)
    (out / "background.png").write_bytes(encode_png(gts[0].background, WIRE_LEVEL))
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
        recon = decode_png((recon_dir / recon_name(config.camera_id, frame_id)).read_bytes())
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
        "env_png_reused": edge_stats["env_png_reused"],
        **cloud.summary(),
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
