import json
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import proxycam.runner
from proxycam.cli import main
from proxycam.cloud.kinematics import measure_poses
from proxycam.sim.spec import ActorSpec, BackgroundSpec, SceneSpec

DEMO = Path(__file__).resolve().parent.parent / "scenes" / "demo.json"

GRAY = BackgroundSpec(kind="flat", colors=((96, 96, 96),))


def solo_actor(
    actions,
    actor_id="a0",
    clothing=(200, 40, 40),
    skin=(224, 180, 150),
    height_px=120,
    trajectory=((0, 110.0, 200.0),),
):
    return ActorSpec(
        actor_id=actor_id,
        clothing=clothing,
        skin=skin,
        height_px=height_px,
        trajectory=trajectory,
        actions=tuple(actions),
    )


def scene(actors, frame_count, width=320, height=240, seed=1, background=GRAY):
    return SceneSpec(
        width=width,
        height=height,
        frame_count=frame_count,
        background=background,
        actors=tuple(actors),
        seed=seed,
    )


def measured(poses):
    """The `PoseGeometry` records of a list of poses, each measured as the
    one pose of its tuple, which is how a camera's window holds them."""
    return [measure_poses([(0, kp)])[0] for kp in poses]


@pytest.fixture
def empty_scene():
    return scene([], frame_count=5)


@pytest.fixture
def stand_scene():
    return scene([solo_actor([(0, 20, "stand")])], frame_count=20)


@pytest.fixture
def fall_scene():
    return scene(
        [solo_actor([(0, 40, "stand"), (40, 61, "fall")])], frame_count=61
    )


def joint_mask_of(gt):
    mask = np.zeros(gt.background.shape[:2], dtype=bool)
    for actor in gt.actors:
        mask |= actor.mask
    return mask


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_chunk(tag, body):
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))


def png_chunks(width, height, rows, color_type=2):
    """The IHDR, IDAT and IEND chunks of a hand-made 8-bit PNG whose raw
    scanlines, each led by its filter byte, are `rows`."""
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return [png_chunk(b"IHDR", ihdr), png_chunk(b"IDAT", zlib.compress(rows)), png_chunk(b"IEND", b"")]


def filtered_png(image, ftype):
    """A PNG of `image`, RGB or (with 4 channels) RGBA, whose last scanline
    carries filter byte `ftype`; for filters 0-4 it is a valid PNG."""
    height, width, channels = image.shape
    rows = np.zeros((height, 1 + width * channels), dtype=np.uint8)
    rows[:, 1:] = image.reshape(height, -1)
    rows[-1, 0] = ftype
    return PNG_SIGNATURE + b"".join(
        png_chunks(width, height, rows.tobytes(), 2 if channels == 3 else 6)
    )


def inflate_bomb_png(width=320, height=240):
    """An RGB PNG of about 50 KB that declares `width` x `height` and
    whose IDAT inflates to 50 MB of zeros."""
    inflater = zlib.compressobj()
    idat = b"".join(inflater.compress(bytes(1 << 20)) for _ in range(50)) + inflater.flush()
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat) + png_chunk(b"IEND", b"")


def run_demo_e2e(out: Path, config: dict | None = None) -> list[bytes]:
    """`proxycam e2e` on scenes/demo.json at seed 7 into `out / "run"`,
    with `config` as its --config file; returns the packets its edge sent."""
    out.mkdir(parents=True, exist_ok=True)
    argv = ["e2e", "--scene", str(DEMO), "--out", str(out / "run"), "--seed", "7"]
    if config:
        (out / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(out / "config.json")]
    packets = []
    real_encode = proxycam.runner.encode

    def encode(t):
        packets.append(real_encode(t))
        return packets[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proxycam.runner, "encode", encode)
        assert main(argv) == 0
    return packets


@pytest.fixture(scope="session")
def demo_e2e(tmp_path_factory):
    """The noise-free demo run, made once for the tests that read it:
    its output directory, its packets and its wall time in seconds."""
    out = tmp_path_factory.mktemp("demo_e2e")
    started = time.perf_counter()
    packets = run_demo_e2e(out)
    return out / "run", packets, time.perf_counter() - started
