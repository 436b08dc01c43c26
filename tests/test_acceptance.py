"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Classifier thresholds are the frozen
config defaults; they were validated once against the calibration scene
set (seeds 1000-1019) and the bounds here are asserted on the disjoint
evaluation set (seeds 5000-5019).
"""

import json
import time
from collections import deque

import numpy as np

from proxycam.audit.attack import build_gallery, identity_attack
from proxycam.audit.independence import mask_independence_audit
from proxycam.cli import main
from proxycam.config import RunConfig
from proxycam.cloud.infer import infer
from proxycam.cloud.reconstruct import reconstruct, render_proxies
from proxycam.edge.pipeline import EdgeState, detect, process_frame
from proxycam.edge.track import TrackerState, track_step
from proxycam.errors import ValidationError
from proxycam.geometry import iou
from proxycam.metrics import BehaviorMetrics, evaluate_behavior
from proxycam.pngio import WIRE_LEVEL, decode_png, encode_png
from proxycam.proxy import occlusion_order
from proxycam.runner import build_tuple, run_e2e
from proxycam.sim.generate import generate_scene
from proxycam.sim.scripts import make_behavior_scene, make_crossing_scene
from proxycam.sim.spec import ActorSpec, BackgroundSpec, SceneSpec, save_scene_spec
from proxycam.skeleton import KeypointSet
from proxycam.transport.codec import decode, encode
from proxycam.transport.model import RepresentationTuple, SyncKey
from proxycam.transport.replay import read_packets, write_packets

from conftest import DEMO

CALIBRATION_SEEDS = range(1000, 1020)
EVALUATION_SEEDS = range(5000, 5020)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def three_actor_scene(frame_count=300) -> SceneSpec:
    actors = (
        ActorSpec(
            actor_id="walker",
            clothing=(200, 60, 60),
            skin=(236, 188, 160),
            height_px=100,
            trajectory=((0, 60.0, 180.0), (149, 200.0, 180.0)),
            actions=((0, 150, "walk"), (150, frame_count, "stand")),
        ),
        ActorSpec(
            actor_id="sitter",
            clothing=(60, 200, 80),
            skin=(208, 156, 124),
            height_px=105,
            trajectory=((0, 260.0, 200.0),),
            actions=((0, 100, "stand"), (100, 200, "sit"), (200, frame_count, "stand")),
        ),
        ActorSpec(
            actor_id="faller",
            clothing=(70, 90, 210),
            skin=(164, 116, 88),
            height_px=110,
            trajectory=((0, 150.0, 220.0),),
            actions=((0, 120, "stand"), (120, frame_count, "fall")),
        ),
    )
    return SceneSpec(
        width=320,
        height=240,
        frame_count=frame_count,
        background=BackgroundSpec(kind="flat", colors=((96, 96, 96),)),
        actors=actors,
        seed=4,
    )


class TestCriterion1ErasureIndependence:
    def test_ten_thousand_trials_zero_failures(self):
        started = time.perf_counter()
        result = mask_independence_audit(trials=10_000, seed=0, width=320, height=240)
        elapsed = time.perf_counter() - started
        report(
            1,
            result.failures == 0 and elapsed < 60.0,
            f"10,000 independence trials, {result.failures} failures, "
            f"{elapsed:.1f}s (< 60 s)",
        )


def random_tuple(rng: np.random.Generator) -> RepresentationTuple:
    h, w = int(rng.integers(4, 24)), int(rng.integers(4, 24))
    env = encode_png(rng.integers(0, 256, (h, w, 3), dtype=np.uint8), WIRE_LEVEL)
    n = int(rng.integers(0, 5))
    sids = rng.choice(2**31, size=n, replace=False).tolist() if n else []
    poses = []
    for sid in sids:
        points = np.empty((17, 2), dtype=np.float32)
        points[:, 0] = rng.uniform(0, 320, 17)
        points[:, 1] = rng.uniform(0, 240, 17)
        visible = rng.uniform(0, 1, 17) < 0.5
        yaw = float(np.float32(rng.uniform(-3.14, 3.14))) if rng.random() < 0.5 else None
        poses.append((int(sid), KeypointSet(points=points, visible=visible, head_yaw=yaw)))
    return RepresentationTuple(
        key=SyncKey(
            camera_id=int(rng.integers(0, 2**32)),
            frame_id=int(rng.integers(0, 2**44)),
            timestamp_us=int(rng.integers(0, 2**44)),
        ),
        env_png=env,
        poses=poses,
    )


class TestCriterion2WireRoundTrip:
    def test_round_trip_and_corruption_detection(self):
        started = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(1000):
            t = random_tuple(rng)
            assert decode(encode(t)) == t

        reference = random_tuple(np.random.default_rng(2))
        packet = encode(reference)
        undetected = 0
        for i in range(len(packet)):
            corrupted = bytearray(packet)
            corrupted[i] ^= 0xFF
            try:
                if decode(bytes(corrupted)) != reference:
                    undetected += 1  # decoded without error into a wrong tuple
                else:
                    undetected += 1  # xor 0xFF cannot produce an equal tuple
            except ValidationError:
                continue
        elapsed = time.perf_counter() - started
        report(
            2,
            undetected == 0 and elapsed < 30.0,
            f"1,000 tuples round-tripped exactly; {len(packet)} single-byte "
            f"corruptions all detected; {elapsed:.1f}s (< 30 s)",
        )


class TestCriterion3IdentityAttack:
    def test_attack_sits_at_chance(self):
        started = time.perf_counter()
        result = identity_attack(build_gallery(8), probe_scenes=400, seed=0)
        elapsed = time.perf_counter() - started
        report(
            3,
            result.accuracy <= 0.175
            and result.control_accuracy >= 0.95
            and elapsed < 300.0,
            f"attack accuracy {result.accuracy:.3f} (bound 0.175, chance 0.125, "
            f"95% CI {result.ci95[0]:.3f}-{result.ci95[1]:.3f}), raw-frame "
            f"control {result.control_accuracy:.3f} (>= 0.95), {elapsed:.0f}s (< 300 s)",
        )


class TestCriterion4RenderEquivalence:
    def test_cloud_reconstruction_equals_edge_composite(self):
        scene = three_actor_scene()
        frames, gts = generate_scene(scene)
        state = EdgeState(scene.width, scene.height)
        mismatches = 0
        for frame_id, (frame, gt) in enumerate(zip(frames, gts)):
            output = process_frame(state, frame, gt)
            t = decode(encode(build_tuple(output, 0, frame_id, frame_id * 33333)))
            proxies = render_proxies(t.poses, (scene.width, scene.height))
            recon = reconstruct(decode_png(t.env_png), proxies)
            if not np.array_equal(recon, output.composite):
                mismatches += 1
        report(
            4,
            mismatches == 0,
            f"300-frame 3-actor oracle scene: cloud reconstruction byte-equal "
            f"to edge composite on every frame ({mismatches} mismatches)",
        )


def score_scene(seed: int) -> BehaviorMetrics:
    scene = make_behavior_scene(seed=seed)
    frames, gts = generate_scene(scene)
    state = EdgeState(scene.width, scene.height)
    window = deque(maxlen=5)
    reports = {}
    for i, (frame, gt) in enumerate(zip(frames, gts)):
        output = process_frame(state, frame, gt)
        window.append(build_tuple(output, 0, i, i * 33333))
        reports[i] = infer(list(window))
    return evaluate_behavior(scene, gts, reports)


class TestCriterion5BehaviorUtility:
    def test_fall_recall_and_sit_false_alarms(self):
        calibration = BehaviorMetrics()
        for seed in CALIBRATION_SEEDS:
            calibration = calibration.merge(score_scene(seed))
        print(
            f"\ncalibration set (frozen defaults): recall "
            f"{calibration.fall_recall:.3f} over {calibration.fall_frames} fall "
            f"frames, sit false-alarm {calibration.sit_false_alarm_rate:.3f} "
            f"over {calibration.sit_frames} sit frames"
        )

        evaluation = BehaviorMetrics()
        for seed in EVALUATION_SEEDS:
            evaluation = evaluation.merge(score_scene(seed))
        report(
            5,
            evaluation.fall_recall >= 0.95
            and evaluation.sit_false_alarm_rate <= 0.05
            and evaluation.fall_frames > 0
            and evaluation.sit_frames > 0,
            f"20 evaluation scenes: fall recall {evaluation.fall_recall:.3f} "
            f"(>= 0.95 over {evaluation.fall_frames} frames), sit false-alarm "
            f"rate {evaluation.sit_false_alarm_rate:.3f} (<= 0.05 over "
            f"{evaluation.sit_frames} frames)",
        )


class TestCriterion6TrackingStability:
    def test_crossing_scene_no_switches_and_valid_orders(self):
        scene = make_crossing_scene()
        frames, gts = generate_scene(scene)

        tracker = TrackerState()
        mapping: dict[int, str] = {}
        switches = 0
        for gt in gts:
            tracks = track_step(tracker, detect(gt))
            for track in tracks:
                best, best_overlap = None, 0.0
                for actor in gt.actors:
                    overlap = iou(track.box, actor.box)
                    if overlap > best_overlap:
                        best, best_overlap = actor.actor_id, overlap
                if track.subject_id in mapping and mapping[track.subject_id] != best:
                    switches += 1
                mapping[track.subject_id] = best

        state = EdgeState(scene.width, scene.height)
        invalid_orders = 0
        for frame, gt in zip(frames, gts):
            output = process_frame(state, frame, gt)
            order = occlusion_order(dict(output.poses))
            if sorted(order) != sorted(sid for sid, _ in output.poses):
                invalid_orders += 1
        report(
            6,
            switches == 0 and invalid_orders == 0,
            f"crossing scene: {switches} identity switches (= 0), occlusion "
            f"order a valid permutation on all {len(frames)} frames",
        )


class TestCriterion7ReorderAndGaps:
    def test_shuffle_and_drop_semantics(self, tmp_path):
        actor = ActorSpec(
            actor_id="a0",
            clothing=(200, 60, 60),
            skin=(236, 188, 160),
            height_px=70,
            trajectory=((0, 70.0, 100.0),),
            actions=((0, 40, "stand"),),
        )
        scene = SceneSpec(
            width=160, height=120, frame_count=40,
            background=BackgroundSpec(kind="flat", colors=((96, 96, 96),)),
            actors=(actor,), seed=2,
        )
        scene_path = tmp_path / "scene.json"
        save_scene_spec(scene, scene_path)
        edge_out = tmp_path / "edge"
        assert main(["edge", "--scene", str(scene_path), "--out", str(edge_out)]) == 0
        packets = list(read_packets(edge_out / "packets.bin"))

        # local shuffle: displacement stays well inside the 30-frame gap threshold
        rng = np.random.default_rng(7)
        keys = np.arange(len(packets)) + rng.uniform(0, 16, size=len(packets))
        shuffled = [packets[i] for i in np.argsort(keys)]
        assert shuffled != packets
        shuffled_path = tmp_path / "shuffled.bin"
        write_packets(shuffled_path, shuffled)
        dropped = packets[:7] + packets[8:]  # frame 7 deleted
        dropped_path = tmp_path / "dropped.bin"
        write_packets(dropped_path, dropped)

        out_order = tmp_path / "in_order"
        out_shuffled = tmp_path / "shuffled"
        out_dropped = tmp_path / "dropped"
        assert main(["cloud", "--replay", str(edge_out / "packets.bin"), "--out", str(out_order)]) == 0
        assert main(["cloud", "--replay", str(shuffled_path), "--out", str(out_shuffled)]) == 0
        assert main(["cloud", "--replay", str(dropped_path), "--out", str(out_dropped)]) == 0

        identical = (
            (out_order / "reports.jsonl").read_bytes()
            == (out_shuffled / "reports.jsonl").read_bytes()
        )
        gaps = json.loads((out_dropped / "summary.json").read_text())["gap_events"]
        report(
            7,
            identical and gaps == [[0, 7, 1]],
            f"shuffled replay reports byte-identical to in-order: {identical}; "
            f"deleting frame 7 yielded gap events {gaps} (exactly [[0, 7, 1]])",
        )


class TestCriterion8Determinism:
    def test_e2e_reproducible_and_fast(self, tmp_path, demo_e2e):
        # run "a" is the session's seed-7 e2e run of scenes/demo.json,
        # which is three_actor_scene()
        run_a, _, elapsed_a = demo_e2e
        started = time.perf_counter()
        summaries = [
            json.loads((run_a / "summary.json").read_text()),
            run_e2e(RunConfig(scene=str(DEMO), seed=7, out_dir=str(tmp_path / "b"))),
        ]
        elapsed = [elapsed_a, time.perf_counter() - started]

        same_packets = summaries[0]["packets_sha256"] == summaries[1]["packets_sha256"]
        same_reports = (
            (run_a / "reports.jsonl").read_bytes()
            == (tmp_path / "b" / "reports.jsonl").read_bytes()
        )
        recon_a = sorted((run_a / "recon").glob("*.png"))
        same_recon = all(
            png.read_bytes() == (tmp_path / "b" / "recon" / png.name).read_bytes()
            for png in recon_a
        )
        in_time = max(elapsed) < 60.0
        report(
            8,
            same_packets and same_reports and same_recon and len(recon_a) == 300 and in_time,
            f"two seeded 300-frame e2e runs: packets, reports, and all "
            f"{len(recon_a)} reconstructions byte-identical; slowest run "
            f"{max(elapsed):.1f}s (< 60 s)",
        )
