import dataclasses
import json
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import proxycam.runner
from proxycam.cli import main
from proxycam.cloud.infer import infer
from proxycam.errors import ValidationError
from proxycam.geometry import BoundingBox
from proxycam.metrics import BehaviorMetrics
from proxycam.proxy import render_proxies
from proxycam.raster import SilhouetteCanvas
from proxycam.sim.generate import (
    ActorTruth,
    GroundTruthFrame,
    _draw_actor,
    _with_visibility,
    render_background,
)
from proxycam.sim.kinematics import pose_at
from proxycam.sim.spec import ActorSpec, BackgroundSpec, SceneSpec, validate_scene_spec
from proxycam.skeleton import (
    GRID,
    L_HIP,
    L_SHOULDER,
    R_HIP,
    R_SHOULDER,
    KeypointSet,
    extent_box,
    measure_poses,
)

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


def on_grid(kp):
    """`kp` as the edge sends it: its points rounded to the wire's 1/16 px
    grid. Ground-truth keypoints lie off that grid, and `encode` refuses them."""
    return KeypointSet(np.round(kp.points * GRID) / GRID, kp.visible, kp.head_yaw)


def measured(poses):
    """The `PoseGeometry` records of a list of poses, each measured as the
    one pose of its tuple, which is how a camera's window holds them."""
    return [measure_poses([(0, kp)])[0] for kp in poses]


def infer_measured(window):
    """`infer` of a window of tuples, each tuple's poses measured as a
    camera's window holds them."""
    return infer(window, [measure_poses(t.poses) for t in window])


def records(poses):
    """The `PoseGeometry` records of poses by subject id, by subject id:
    what `occlusion_order` reads."""
    return dict(zip(poses, measure_poses(list(poses.items()))))


def subjects(poses):
    """Poses by subject id as `render_proxy` takes them: each pose with its
    record."""
    return {sid: (poses[sid], record) for sid, record in records(poses).items()}


def proxies_of(poses, frame_size):
    """`render_proxies` of (subject id, pose) pairs, measured here."""
    poses = list(poses)
    return render_proxies(poses, measure_poses(poses), frame_size)


# the per-pose measurements that `measure_poses` replaced, kept as the
# references its records are checked against


def visible_points(kp):
    return kp.points[kp.visible]


def midpoint(kp, a, b):
    """Midpoint of two paired joints, using whichever side is visible."""
    va, vb = kp.visible[a], kp.visible[b]
    if va and vb:
        return (kp.points[a] + kp.points[b]) / 2.0
    if va:
        return kp.points[a].copy()
    if vb:
        return kp.points[b].copy()
    return None


def hip_mid(kp):
    return midpoint(kp, L_HIP, R_HIP)


def shoulder_mid(kp):
    return midpoint(kp, L_SHOULDER, R_SHOULDER)


def torso_length(kp):
    """Shoulder-midpoint to hip-midpoint distance, None if unmeasurable."""
    sm, hm = shoulder_mid(kp), hip_mid(kp)
    if sm is None or hm is None:
        return None
    return float(np.hypot(*(sm - hm)))


def keypoint_extent_box(kp):
    vis = visible_points(kp)
    if vis.shape[0] == 0:
        raise ValidationError("no visible joints to box")
    x0, y0 = vis.min(axis=0)
    x1, y1 = vis.max(axis=0)
    return extent_box(float(x0), float(y0), float(x1 - x0), float(y1 - y0))


def merge_metrics(a, b):
    """The `BehaviorMetrics` of two scored sets together."""
    return BehaviorMetrics(
        *(getattr(a, f.name) + getattr(b, f.name) for f in dataclasses.fields(BehaviorMetrics))
    )


def mask_from_rle(runs, shape):
    """The boolean mask of row-major run lengths, alternating and starting
    with a zero run, as the ground-truth file writes them."""
    flat = np.zeros(shape[0] * shape[1], dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if value:
            flat[pos : pos + run] = True
        pos += run
        value = not value
    if pos != flat.size:
        raise ValidationError("run lengths do not cover the mask")
    return flat.reshape(shape)


def reference_generate_scene(spec):
    """`generate_scene` as it was before it reused a still actor's paint:
    every actor of every frame queued on that frame's one `SilhouetteCanvas`,
    and each silhouette cropped to the extent of its set pixels. Kept as the
    reference the simulator's frames and ground truth are checked against."""
    validate_scene_spec(spec)
    background = render_background(spec)
    h, w = spec.height, spec.width
    frames, gts = [], []
    for f in range(spec.frame_count):
        canvas = background.copy()
        staged = []
        for actor in spec.actors:
            pose, yaw = pose_at(actor, f)
            staged.append((float(pose.points[15:17, 1].mean()), actor, pose, yaw))
        staged.sort(key=lambda item: (item[0], item[1].actor_id))
        silhouettes = SilhouetteCanvas()
        placed = [
            (actor, pose, yaw, _draw_actor(silhouettes, pose, actor.height_px, w, h))
            for _, actor, pose, yaw in staged
        ]
        masks = silhouettes.paint()
        truths = []
        for actor, pose, yaw, parts in placed:
            if parts is None:
                continue
            body_patch, skin_patch, x0, y0 = parts
            body, skin = masks[body_patch], masks[skin_patch]
            region = canvas[y0 : y0 + body.shape[0], x0 : x0 + body.shape[1]]
            region[body] = actor.clothing
            region[skin] = actor.skin
            ys, xs = np.nonzero(body | skin)
            if ys.size == 0:
                continue
            r0, r1, c0, c1 = ys.min(), ys.max() + 1, xs.min(), xs.max() + 1
            truths.append(
                ActorTruth(
                    actor_id=actor.actor_id,
                    box=BoundingBox(float(x0 + c0), float(y0 + r0), float(c1 - c0), float(r1 - r0)),
                    silhouette=(body | skin)[r0:r1, c0:c1],
                    frame_shape=(h, w),
                    keypoints=_with_visibility(pose, w, h),
                    head_yaw=yaw,
                    action=actor.action_at(f)[2],
                )
            )
        order = {a.actor_id: i for i, a in enumerate(spec.actors)}
        truths.sort(key=lambda t: order[t.actor_id])
        frames.append(canvas)
        gts.append(GroundTruthFrame(frame_idx=f, actors=tuple(truths), background=background))
    return frames, gts


def make_crossing_scene():
    """Two walkers crossing paths at different depths over 80 frames.

    Their trajectories swap sides horizontally while the nearer one stays
    a bit lower in the image, so boxes overlap mid-scene but identities
    are geometrically resolvable.
    """
    walk = ((0, 80, "walk"),)
    left = solo_actor(walk, actor_id="left", clothing=(200, 60, 60), height_px=110,
                      trajectory=((0, 60.0, 185.0), (79, 230.0, 185.0)))
    right = solo_actor(walk, actor_id="right", clothing=(60, 90, 210), skin=(200, 160, 130),
                       height_px=110, trajectory=((0, 230.0, 215.0), (79, 60.0, 215.0)))
    return scene([left, right], 80, seed=0)


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
