import struct
import zlib

import numpy as np
import pytest

from proxycam.sim.spec import ActorSpec, BackgroundSpec, SceneSpec

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


def inflate_bomb_png():
    """A 320x240 RGB PNG of about 50 KB whose IDAT inflates to 50 MB of zeros."""
    inflater = zlib.compressobj()
    idat = b"".join(inflater.compress(bytes(1 << 20)) for _ in range(50)) + inflater.flush()
    ihdr = struct.pack(">IIBBBBB", 320, 240, 8, 2, 0, 0, 0)
    return PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat) + png_chunk(b"IEND", b"")
