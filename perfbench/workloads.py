"""The three workloads: set-up, timed rounds, output checks and metrics.

A run sets up at least SETUP_REPEATS times and for at least SETUP_SECONDS
(the last set-up is kept), then runs the number of whole rounds whose wall
time, checks included, adds up nearest to the requested seconds, at least
one. Every time it reports is taken on the clock of calibrate.py: CPU
time of the process, scaled to a fixed reference speed. Every round
starts from fresh program state on the same inputs and must reproduce the
first round's packets, reports and reconstructions byte for byte; the
first round is checked in full. Load is a closed loop from one thread: the
edge takes the next frame when the previous one has left its sink.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np

import proxycam.audit.independence
from proxycam.audit import build_gallery, identity_attack, mask_independence_audit, pixel_leak_scan
from proxycam.config import RunConfig
from proxycam.metrics import evaluate_behavior
from proxycam.runner import CloudRunner, run_edge
from proxycam.sim.generate import generate_scene
from proxycam.sim.scripts import make_solo_scene
from proxycam.transport.codec import decode
from proxycam.transport.reorder import DuplicateEvent, GapEvent, OverflowEvent

from . import checks, scenes
from .calibrate import Calibration
from .trace import Tracer, per_layer_metrics

SETUP_REPEATS = 3         # at least; short set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 2.0
FALL_RECALL_MIN = 0.95
SIT_FALSE_ALARM_MAX = 0.05
LEAK_BOUND = 0.9
ATTACK_MARGIN = 0.05
CONTROL_MIN = 0.95

END_TO_END = (
    ("e2e_fps", "frames/s"),
    ("e2e_frame_ms_p50", "ms"),
    ("e2e_frame_ms_p90", "ms"),
    ("edge_fps", "frames/s"),
    ("edge_frame_ms_p50", "ms"),
    ("edge_frame_ms_p90", "ms"),
    ("cloud_fps", "frames/s"),
    ("cloud_frame_ms_p50", "ms"),
    ("cloud_frame_ms_p90", "ms"),
    ("wire_bytes_per_frame", "bytes"),
    ("round_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# the clock of the run in progress (see calibrate.py); run_workload renews it
calibration = Calibration()


def clock() -> float:
    return calibration.clock()


class TimedFrames(list):
    """Pre-rendered frames that note when the edge takes each one."""

    def __init__(self, frames, on_take=None):
        super().__init__(frames)
        self.taken = [0.0] * len(frames)
        self._on_take = on_take

    def __iter__(self):
        for i, frame in enumerate(list.__iter__(self)):
            calibration.maybe()
            if self._on_take is not None:
                self._on_take(i)
            self.taken[i] = clock()
            yield frame


@dataclass
class Camera:
    """One camera's inputs (from set-up) and what its edge emitted in a round."""

    camera: int
    spec: object
    frames: list
    gts: list
    packets: list = field(default_factory=list)
    composites: list = field(default_factory=list)


@dataclass
class Stream:
    """Timestamps and busy times of one round's frames, keyed by ("frame", camera, frame)."""

    taken: dict = field(default_factory=dict)
    emitted: dict = field(default_factory=dict)
    delivered: dict = field(default_factory=dict)
    reported: dict = field(default_factory=dict)
    edge_s: float = 0.0
    cloud_s: float = 0.0
    timed_s: float = 0.0


class Pipeline:
    """Edge and cloud of one round, with the benchmark's clocks around their calls."""

    def __init__(self, workload: str, seed: int, tracer: Tracer | None):
        self.tracer = tracer
        self.seed = seed
        self.stream = Stream()
        self.recon_dir = Path("out") / "perfbench" / workload / "recon"
        shutil.rmtree(self.recon_dir, ignore_errors=True)
        self.recon_dir.mkdir(parents=True)
        self.cloud = CloudRunner(config=RunConfig(seed=seed), out_dir=self.recon_dir)
        self._feed = self._traced("cloud.feed", self.cloud.feed)
        self._finish = self._traced("cloud.feed", self.cloud.finish)

    def _traced(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def edge(self, cam: Camera, sink_to_cloud: bool, beside=None) -> None:
        """Run one camera through run_edge; its sink feeds the cloud or keeps the packets.

        `beside(i, packet)` runs in the sink after the cloud call; its time
        is left out of the stream's edge, cloud and timed-phase times.
        """
        stream = self.stream
        sink_s = aside_s = 0.0

        def on_take(i):
            if self.tracer is not None:
                self.tracer.key = (cam.camera, i)

        def sink(packet: bytes) -> None:
            nonlocal sink_s, aside_s
            entered = clock()
            key = ("frame", cam.camera, len(cam.packets))
            cam.packets.append(packet)
            stream.emitted[key] = entered
            if sink_to_cloud:
                self.deliver(key, packet)
            if beside is not None:
                aside = clock()
                beside(len(cam.packets) - 1, packet)
                aside_s += clock() - aside
            sink_s += clock() - entered

        frames = TimedFrames(cam.frames, on_take)
        config = RunConfig(seed=self.seed, camera_id=cam.camera, out_dir=str(self.recon_dir))
        start = clock()
        result = run_edge(
            config, cam.spec, sink, collect_outputs=True, pregenerated=(frames, cam.gts)
        )
        busy = clock() - start
        stream.edge_s += busy - sink_s
        # a sink that only keeps packets does benchmark bookkeeping, not pipeline work
        stream.timed_s += (busy if sink_to_cloud else busy - sink_s) - aside_s
        for i, taken in enumerate(frames.taken):
            stream.taken[("frame", cam.camera, i)] = taken
        cam.composites = [checks.digest(out.composite) for out in result["outputs"]]

    def deliver(self, key, packet: bytes) -> None:
        start = clock()
        before = len(self.cloud.reports)
        self._feed(packet)
        self._after_cloud_call(start, before, key)

    def finish(self) -> None:
        start = clock()
        before = len(self.cloud.reports)
        self._finish()
        self._after_cloud_call(start, before, None)
        self.stream.timed_s += clock() - start

    def _after_cloud_call(self, start, before, key) -> None:
        end = clock()
        stream = self.stream
        stream.cloud_s += end - start
        if key is not None:
            stream.delivered.setdefault(key, start)
        new = len(self.cloud.reports) - before
        for camera, frame in itertools.islice(reversed(self.cloud.reports), new):
            stream.reported[("frame", camera, frame)] = end


@dataclass
class RoundResult:
    stream: Stream
    seconds: float
    attempted: int
    failed_keys: set
    digests: dict
    packet_lengths: list
    subjects: int = 0
    env_bytes: int = 0
    pose_bytes: int = 0
    trials: int = 0
    attack_scenes: int = 0
    leak_frames: int = 0


def check_cameras(
    cams: list[Camera], pipe: Pipeline, injected: list, first: RoundResult | None
) -> tuple[set, dict, dict]:
    """Check every frame's packet, env image, report and reconstruction.

    A frame whose outputs are byte-identical to those of the `first` round,
    which was checked in full, takes that round's verdict. Returns the
    failed ("frame", camera, frame) keys, the per-frame output digests and
    the wire sizes.
    """
    cloud = pipe.cloud
    failed: set = set()
    per_frame: dict = {}
    sizes = {"subjects": 0, "env_bytes": 0, "pose_bytes": 0}
    records = {(r["camera_id"], r["frame_id"]): r for r in cloud.report_records()}

    for event in cloud.events:
        if isinstance(event, GapEvent):
            failed.add(("frame", event.camera_id, event.frame_id))
        elif isinstance(event, OverflowEvent):
            failed.add(("overflow", event.camera_id, event.pending))
    seen_dups = sorted(
        ("frame", e.camera_id, e.frame_id) for e in cloud.events if isinstance(e, DuplicateEvent)
    )
    expected_dups = sorted(("frame", c, f) for c, f in injected)
    if seen_dups != expected_dups:
        failed.update(set(seen_dups) ^ set(expected_dups))
    failed.update(("malformed", 0, n) for n in range(cloud.malformed))

    for cam in cams:
        erasure = checks.ErasureCheck(cam.frames[0].shape[:2])
        for i, (raw, gt) in enumerate(zip(cam.frames, cam.gts)):
            key = ("frame", cam.camera, i)
            record = records.get((cam.camera, i))
            if i >= len(cam.packets) or record is None:
                erasure.skip(gt)
                failed.add(key)
                continue
            try:
                parsed = checks.parse_packet(cam.packets[i])
            except checks.CheckError:
                erasure.skip(gt)
                failed.add(key)
                continue
            sizes["subjects"] += len(record["subjects"])
            sizes["env_bytes"] += parsed["env_bytes"]
            sizes["pose_bytes"] += parsed["pose_bytes"]
            recon_path = pipe.recon_dir / f"cam{cam.camera}_frame{i}.png"
            recon = recon_path.read_bytes() if recon_path.exists() else b""
            outputs = (
                hashlib.sha256(cam.packets[i]).hexdigest(),
                json.dumps(record, sort_keys=True),
                cam.composites[i],
                hashlib.sha256(recon).hexdigest(),
            )
            per_frame[key] = outputs
            if first is not None and first.digests.get(key) == outputs:
                erasure.skip(gt)
                if key in first.failed_keys:
                    failed.add(key)
                continue
            try:
                env = checks.decode_png_rgb(parsed["env_png"])
                scrubbed = erasure.frame_ok(env, raw, gt)
                ok = (
                    scrubbed
                    and (parsed["camera"], parsed["frame"]) == (cam.camera, i)
                    and checks.reconstruction_ok(
                        checks.decode_png_rgb(recon), env, cam.composites[i]
                    )
                )
            except checks.CheckError:
                erasure.skip(gt)
                ok = False
            if not ok:
                failed.add(key)

        reports = {fid: cloud.reports[(c, fid)] for (c, fid) in cloud.reports if c == cam.camera}
        behavior = evaluate_behavior(cam.spec, cam.gts, reports)
        if (
            behavior.fall_recall < FALL_RECALL_MIN
            or behavior.sit_false_alarm_rate > SIT_FALSE_ALARM_MAX
        ):
            failed.update(("frame", cam.camera, i) for i in range(len(cam.frames)))
    return failed, per_frame, sizes


def _digest_of(per_frame: dict) -> dict:
    digests = {}
    for index, name in enumerate(("packets", "reports", "composites", "reconstructions")):
        h = hashlib.sha256()
        for key in sorted(per_frame):
            h.update(per_frame[key][index].encode())
        digests[name] = h.hexdigest()
    return digests


def _stream_round(pipe, cams, injected, seconds, first, **extra) -> RoundResult:
    failed, per_frame, sizes = check_cameras(cams, pipe, injected, first)
    return RoundResult(
        stream=pipe.stream,
        seconds=seconds,
        attempted=sum(len(c.frames) for c in cams),
        failed_keys=failed,
        digests=per_frame,
        packet_lengths=[len(p) for c in cams for p in c.packets],
        **sizes,
        **extra,
    )


def _fresh(setup: list[Camera]) -> list[Camera]:
    """The set-up's cameras with nothing emitted yet."""
    return [Camera(c.camera, c.spec, c.frames, c.gts) for c in setup]


# ---- crowd -------------------------------------------------------------


def setup_crowd(seed: int, generate) -> list[Camera]:
    spec = scenes.crowd_scene(seed)
    frames, gts = generate(spec)
    return [Camera(0, spec, frames, gts)]


def round_crowd(setup, seed: int, tracer, first) -> RoundResult:
    cams = _fresh(setup)
    pipe = Pipeline("crowd", seed, tracer)
    pipe.edge(cams[0], sink_to_cloud=True)
    pipe.finish()
    return _stream_round(pipe, cams, [], pipe.stream.timed_s, first)


# ---- fleet -------------------------------------------------------------


def setup_fleet(seed: int, generate) -> list[Camera]:
    cams = []
    for c in range(scenes.FLEET_CAMERAS):
        spec = scenes.fleet_scene(seed, c)
        frames, gts = generate(spec)
        cams.append(Camera(c, spec, frames, gts))
    return cams


def round_fleet(setup, seed: int, tracer, first) -> RoundResult:
    cams = _fresh(setup)
    link = scenes.fleet_link(seed, len(cams), len(cams[0].frames))
    pipe = Pipeline("fleet", seed, tracer)
    for cam in cams:
        pipe.edge(cam, sink_to_cloud=False)
    start = clock()
    for d in link:
        calibration.maybe()
        pipe.deliver(("frame", d.camera, d.frame), cams[d.camera].packets[d.frame])
    pipe.stream.timed_s += clock() - start
    pipe.finish()
    injected = [(d.camera, d.frame) for d in link if d.duplicate]
    return _stream_round(pipe, cams, injected, pipe.stream.timed_s, first)


# ---- audit -------------------------------------------------------------


def setup_audit(seed: int, generate) -> list[Camera]:
    spec = make_solo_scene(
        seed=seed, frame_count=scenes.AUDIT_LEAK_FRAMES, actions_pool=("walk",)
    )
    frames, gts = generate(spec)
    return [Camera(0, spec, frames, gts)]


def round_audit(setup, seed: int, tracer, first) -> RoundResult:
    """The identity attack, then the leak-scan stream through edge and cloud.

    Each stream frame's wire image is scanned, and a share of the
    independence trials run, once the cloud has its report, so the
    stream's frames are spread over most of the round instead of one
    second of it.
    """

    def traced(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    cams = _fresh(setup)
    cam = cams[0]
    pipe = Pipeline("audit", seed, tracer)
    independence = traced("audit.independence", mask_independence_audit)
    scan = traced("audit.leakscan", pixel_leak_scan)
    failed: set = set()

    def beside(i: int, packet: bytes) -> None:
        calibration.maybe()
        leak = scan(decode(packet), cam.frames[i], checks.joint_mask(cam.gts[i]))
        if leak.max_correlation >= LEAK_BOUND:
            failed.add(("frame", 0, i))
        trials = independence(
            scenes.AUDIT_TRIALS_PER_FRAME,
            seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
            # looked up at call time, so a test can substitute the scrubber
            erase_fn=proxycam.audit.independence.erase,
        )
        calibration.maybe()
        failed.update(("trial", i, n) for n in range(trials.failures))

    start = clock()
    attack = traced("audit.attack", identity_attack)(
        build_gallery(scenes.AUDIT_GALLERY),
        scenes.AUDIT_PROBES,
        seed=scenes.AUDIT_ATTACK_SEED,
        enroll_per_actor=scenes.AUDIT_ENROLL,
    )
    pipe.edge(cam, sink_to_cloud=True, beside=beside)
    pipe.finish()
    seconds = clock() - start

    trials = scenes.AUDIT_TRIALS_PER_FRAME * len(cam.frames)
    result = _stream_round(
        pipe,
        cams,
        [],
        seconds,
        first,
        trials=trials,
        attack_scenes=scenes.AUDIT_GALLERY * scenes.AUDIT_ENROLL + scenes.AUDIT_PROBES,
        leak_frames=len(cam.frames),
    )
    result.failed_keys |= failed
    if attack.control_accuracy < CONTROL_MIN or attack.accuracy > attack.chance + ATTACK_MARGIN:
        result.failed_keys |= {("probe", 0, i) for i in range(attack.probes)}
    result.attempted += trials + scenes.AUDIT_PROBES
    result.digests[("audit", 0, 0)] = (
        json.dumps([attack.accuracy, attack.control_accuracy]),
        "",
        "",
        "",
    )
    return result


@contextmanager
def _sampled_attack():
    """Let the identity attack, one long call, run reference units between its frames."""
    attack = import_module("proxycam.audit.attack")
    original = attack.process_frame

    def sampled(*args, **kwargs):
        calibration.maybe()
        return original(*args, **kwargs)

    attack.process_frame = sampled
    try:
        yield
    finally:
        attack.process_frame = original


WORKLOADS = {
    "crowd": (setup_crowd, round_crowd),
    "fleet": (setup_fleet, round_fleet),
    "audit": (setup_audit, round_audit),
}


# ---- one run -----------------------------------------------------------


def _ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1000.0 if seconds else 0.0


def _round_timings(r: RoundResult) -> dict:
    s = r.stream
    e2e = [s.reported[k] - s.taken[k] for k in s.reported if k in s.taken]
    edge = [s.emitted[k] - s.taken[k] for k in s.emitted if k in s.taken]
    cloud = [s.reported[k] - s.delivered[k] for k in s.reported if k in s.delivered]
    return {
        "e2e_fps": len(s.reported) / s.timed_s,
        "e2e_frame_ms_p50": _ms(e2e, 50),
        "e2e_frame_ms_p90": _ms(e2e, 90),
        "edge_fps": len(s.taken) / s.edge_s,
        "edge_frame_ms_p50": _ms(edge, 50),
        "edge_frame_ms_p90": _ms(edge, 90),
        "cloud_fps": len(s.reported) / s.cloud_s,
        "cloud_frame_ms_p50": _ms(cloud, 50),
        "cloud_frame_ms_p90": _ms(cloud, 90),
        "round_s": r.seconds,
    }


def end_to_end_metrics(rounds: list[RoundResult], setup_times: list[float]) -> dict:
    """Each timing is the median over the rounds of its value in one round.

    A burst of load on the host that the calibration does not follow then
    moves one round's figures, not the run's.
    """
    per_round = [_round_timings(r) for r in rounds]
    values = {name: statistics.median(t[name] for t in per_round) for name in per_round[0]}
    lengths = [n for r in rounds for n in r.packet_lengths]
    values.update({
        "wire_bytes_per_frame": sum(lengths) / max(len(lengths), 1),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds for `seconds` of wall time, check, and report.

    Returns the result object (correct, attempted, failed, metrics) plus
    `digests`, `scale` (the run's mean speed factor) and `wall` (the
    wall-clock medians of set-up and of a round with its checks, for
    comparison) and, for a traced run, `end_to_end` and `trace_file`.
    """
    global calibration
    calibration = Calibration()
    setup_fn, round_fn = WORKLOADS[workload]
    tracer = Tracer(clock) if trace else None
    generate = generate_scene if tracer is None else tracer.wrap(
        "sim.generate", generate_scene, tracer._after_generate
    )
    wall = {"setup_s": [], "round_s": []}
    with _sampled_attack(), tracer.installed() if tracer is not None else nullcontext():
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            setup = None
            calibration.maybe()
            start, wall_start = clock(), time.perf_counter()
            setup = setup_fn(seed, generate)
            setup_times.append(clock() - start)
            wall["setup_s"].append(time.perf_counter() - wall_start)

        rounds: list[RoundResult] = []
        measured = 0.0
        # whole rounds, as many as come nearest to the requested seconds of
        # wall time, so a busy machine makes a run no longer
        while not rounds or measured + wall["round_s"][-1] / 2 < seconds:
            first = rounds[0] if rounds else None
            wall_start = time.perf_counter()
            result = round_fn(setup, seed, tracer, first)
            wall["round_s"].append(time.perf_counter() - wall_start)
            if first is not None:
                result.failed_keys |= {
                    k for k in first.digests if result.digests.get(k) != first.digests[k]
                }
            measured += wall["round_s"][-1]
            rounds.append(result)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed_keys) for r in rounds)
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "digests": _digest_of(rounds[0].digests),
        "rounds": len(rounds),
        "scale": calibration.scale(),
        "wall": {name: statistics.median(times) for name, times in wall.items()},
    }
    e2e = end_to_end_metrics(rounds, setup_times)
    if tracer is None:
        out["metrics"] = e2e
        return out
    totals = {
        "rounds": len(rounds),
        "cloud_frames": sum(len(r.stream.reported) for r in rounds),
        "subjects": sum(r.subjects for r in rounds),
        "wire_env_bytes": sum(r.env_bytes for r in rounds),
        "wire_pose_bytes": sum(r.pose_bytes for r in rounds),
        "packets": sum(len(r.packet_lengths) for r in rounds),
        "trials": sum(r.trials for r in rounds),
        "attack_scenes": sum(r.attack_scenes for r in rounds),
        "leak_frames": sum(r.leak_frames for r in rounds),
    }
    trace_file = Path("out") / "perfbench" / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_file)
    out["metrics"] = per_layer_metrics(tracer, totals)
    out["end_to_end"] = e2e
    out["trace_file"] = str(trace_file)
    return out
