"""The pipeline's output bytes, pinned.

`tests/byte_contract.json` holds digests of what the CLI writes for
`scenes/demo.json` at seed 7, with and without `edge.noise_sigma: 2.0`,
of the simulator's frames and `ground_truth.jsonl` for that scene, of
the frames and ground truth of one simulated scene of still and moving
actors, and of the reduced audit's `audit_report.json`. The actors'
painted colours never reach the wire, so only the frame digests pin them. The simulator's
backgrounds are static, so the demo's scrubbed pixels do not depend on the
background model's EMA weight, and no demo frame breaks a depth tie in the
occlusion order where proxies overlap. One more stream, made in process,
pins both. A change that moves any of these bytes fails here. A deliberate byte change rewrites the file with

    PYTHONPATH=src python tests/test_byte_contract.py

and says so.

PNG bytes depend on the zlib build, so images are pinned by their decoded
pixels: a packet by its non-PNG bytes (the header and the poses; the env
length and the CRC follow from the PNG) and its env image's pixels, a
reconstruction or a simulated frame by its name and pixels. The raw digests of the packets and
of the reconstruction files are checked only where zlib's runtime version
is the one they were taken with.
"""

import hashlib
import json
import sys
import zlib
from pathlib import Path

import numpy as np

from proxycam.cli import main
from proxycam.config import RunConfig
from proxycam.pngio import decode_png
from proxycam.runner import CloudRunner, run_edge
from proxycam.sim.generate import generate_scene, write_ground_truth_jsonl

from conftest import DEMO, run_demo_e2e, scene, solo_actor

CONTRACT = Path(__file__).resolve().parent / "byte_contract.json"
# the packet layout up to the env length, and the env length's size
HEADER_BYTES, ENV_LENGTH_BYTES = 26, 4

NOISE = {"edge": {"noise_sigma": 2.0}}
AUDIT_ARGS = ["--seed", "0", "--trials", "200", "--probes", "16", "--gallery", "4"]


def portable_packet(packet: bytes) -> bytes:
    """A packet's non-PNG bytes followed by its env image's pixels."""
    start = HEADER_BYTES + ENV_LENGTH_BYTES
    length = int.from_bytes(packet[HEADER_BYTES:start], "little")
    png = packet[start : start + length]
    return packet[:HEADER_BYTES] + packet[start + length : -4] + decode_png(png).tobytes()


def stream_contract(packets: list[bytes], reports: Path, recon_files: list[Path]) -> dict:
    """The digests of a stream's packets, its reports file and its
    reconstructions, in release order."""
    pixels, raw_recon = hashlib.sha256(), hashlib.sha256()
    for path in recon_files:
        png = path.read_bytes()
        pixels.update(path.name.encode() + decode_png(png).tobytes())
        raw_recon.update(png)
    return {
        "packets": len(packets),
        "packets_portable_sha256": hashlib.sha256(
            b"".join(portable_packet(p) for p in packets)
        ).hexdigest(),
        "reports_sha256": hashlib.sha256(reports.read_bytes()).hexdigest(),
        "reconstructions": len(recon_files),
        "reconstructions_pixels_sha256": pixels.hexdigest(),
        "raw_png": {
            "packets_sha256": hashlib.sha256(b"".join(packets)).hexdigest(),
            "reconstructions_sha256": raw_recon.hexdigest(),
        },
    }


def e2e_contract(run: Path, packets: list[bytes]) -> dict:
    """The digests of one demo e2e run's packets, outputs and counters."""
    summary = json.loads((run / "summary.json").read_text())
    recon = [run / name for name in summary["deterministic_outputs"] if name.startswith("recon/")]
    contract = stream_contract(packets, run / "reports.jsonl", recon)
    assert contract["raw_png"]["packets_sha256"] == summary["packets_sha256"]
    keys = ("render_mismatches", "env_png_reused", "reconstructions_reused",
            "proxies_drawn", "proxies_reused")
    contract.update((key, summary[key]) for key in keys)
    return contract


def tie_and_sensor_noise_contract(out: Path) -> dict:
    """Two standing subjects glide side by side, 4 px apart at one depth, so
    the occlusion order's tie-break decides which proxy covers the other.
    The background's pixels carry seeded sensor noise, so the pixels the
    subjects move onto scrub to an estimate that takes the background
    model's EMA weight. Run through `run_edge` into a
    `CloudRunner`, since the CLI only streams static simulated frames."""
    actors = [
        solo_actor([(0, 12, "stand")], actor_id=f"a{i}", clothing=clothing, height_px=70,
                   trajectory=((0, x, 100.0), (11, x + 40.0, 100.0)))
        for i, (x, clothing) in enumerate(((50.0, (200, 40, 40)), (54.0, (40, 60, 200))))
    ]
    spec = scene(actors, frame_count=12, width=160, height=120)
    frames, gts = generate_scene(spec)
    rng = np.random.default_rng(7)
    noisy = [
        np.clip(f + rng.integers(-4, 5, f.shape), 0, 255).astype(np.uint8) for f in frames
    ]
    out.mkdir(parents=True, exist_ok=True)
    cloud = CloudRunner(config=RunConfig(seed=7), out_dir=out)
    packets = []

    def sink(packet: bytes) -> None:
        packets.append(packet)
        cloud.feed(packet)

    run_edge(RunConfig(seed=7), spec, sink, pregenerated=(noisy, gts))
    cloud.finish()
    cloud.write_reports(out / "reports.jsonl")
    return stream_contract(packets, out / "reports.jsonl", [out / n for n in cloud.recon_files])


def sim_contract(out: Path) -> dict:
    assert main(["sim", "--scene", str(DEMO), "--out", str(out)]) == 0
    truth = (out / "ground_truth.jsonl").read_bytes()
    names = json.loads((out / "summary.json").read_text())["files"]
    pixels = hashlib.sha256()
    frames = [name for name in names if name.startswith("frames/")]
    for name in frames:
        pixels.update(name.encode() + decode_png((out / name).read_bytes()).tobytes())
    return {
        "ground_truth_sha256": hashlib.sha256(truth).hexdigest(),
        "frames": len(frames),
        "frames_pixels_sha256": pixels.hexdigest(),
    }


def still_and_moving_contract(out: Path) -> dict:
    """A standing actor, one that sits, one that falls, one that raises an
    arm, one cut by the right edge, and a walker that passes in front of
    and behind them: most actor-frames repeat the actor's previous pose."""
    walk = ((0, 40, "walk"),)
    actors = [
        solo_actor([(0, 40, "stand")], actor_id="still", trajectory=((0, 60.0, 200.0),)),
        solo_actor([(0, 8, "stand"), (8, 40, "sit")], actor_id="sit", clothing=(40, 160, 60),
                   trajectory=((0, 120.0, 215.0),)),
        solo_actor([(0, 10, "stand"), (10, 40, "fall")], actor_id="fall",
                   clothing=(60, 60, 200), trajectory=((0, 150.0, 170.0),)),
        solo_actor([(0, 5, "stand"), (5, 40, "raise_arm")], actor_id="arm",
                   clothing=(200, 200, 40), trajectory=((0, 250.0, 225.0),)),
        solo_actor([(0, 40, "stand")], actor_id="cut", clothing=(120, 40, 160), height_px=90,
                   trajectory=((0, 316.0, 120.0),)),
        solo_actor(walk, actor_id="walker", clothing=(40, 200, 200), height_px=100,
                   trajectory=((0, 20.0, 205.0), (39, 300.0, 205.0))),
    ]
    frames, gts = generate_scene(scene(actors, frame_count=40))
    pixels = hashlib.sha256()
    for frame in frames:
        pixels.update(frame.tobytes())
    out.mkdir(parents=True, exist_ok=True)
    write_ground_truth_jsonl(gts, out / "ground_truth.jsonl")
    truth = (out / "ground_truth.jsonl").read_bytes()
    return {
        "ground_truth_sha256": hashlib.sha256(truth).hexdigest(),
        "frames": len(frames),
        "frames_pixels_sha256": pixels.hexdigest(),
    }


def audit_contract(out: Path) -> dict:
    assert main(["audit", *AUDIT_ARGS, "--out", str(out)]) == 0
    report = (out / "audit_report.json").read_bytes()
    return {"audit_report_sha256": hashlib.sha256(report).hexdigest()}


def check(case: str, actual: dict) -> None:
    pinned = json.loads(CONTRACT.read_text())
    expected = dict(pinned["cases"][case])
    expected_raw, actual_raw = expected.pop("raw_png", None), actual.pop("raw_png", None)
    assert actual == expected
    if zlib.ZLIB_RUNTIME_VERSION == pinned["zlib"]:
        assert actual_raw == expected_raw


def test_demo_outputs_equal_the_pinned_bytes(demo_e2e):
    run, packets, _ = demo_e2e
    check("demo_seed7", e2e_contract(run, packets))


def test_noisy_demo_outputs_equal_the_pinned_bytes(tmp_path):
    packets = run_demo_e2e(tmp_path, NOISE)
    check("demo_seed7_noise2", e2e_contract(tmp_path / "run", packets))


def test_tied_depths_over_noisy_pixels_equal_the_pinned_bytes(tmp_path):
    check("tie_and_sensor_noise", tie_and_sensor_noise_contract(tmp_path))


def test_simulated_ground_truth_equals_the_pinned_bytes(tmp_path):
    check("sim_demo_seed7", sim_contract(tmp_path))


def test_still_and_moving_actors_equal_the_pinned_bytes(tmp_path):
    check("sim_still_and_moving", still_and_moving_contract(tmp_path))


def test_reduced_audit_report_equals_the_pinned_bytes(tmp_path):
    check("audit", audit_contract(tmp_path))


def write_contract(scratch: Path) -> None:
    cases = {}
    for case, config in (("demo_seed7", None), ("demo_seed7_noise2", NOISE)):
        packets = run_demo_e2e(scratch / case, config)
        cases[case] = e2e_contract(scratch / case / "run", packets)
    cases["tie_and_sensor_noise"] = tie_and_sensor_noise_contract(scratch / "tie")
    cases["sim_demo_seed7"] = sim_contract(scratch / "sim")
    cases["sim_still_and_moving"] = still_and_moving_contract(scratch / "still")
    cases["audit"] = audit_contract(scratch / "audit")
    contract = {"zlib": zlib.ZLIB_RUNTIME_VERSION, "cases": cases}
    CONTRACT.write_text(json.dumps(contract, indent=2) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_contract(Path(scratch))
    print(f"wrote {CONTRACT}", file=sys.stderr)
