"""Re-identification attack against the pipeline's own output.

Identity is operationalized as appearance (clothing and skin colors), the
one thing the simulator controls exactly. Gallery actors share the same
body height and draw their scripts from the same distribution, so the
only signal separating them is appearance, and appearance is exactly what
the edge removes. A nearest-neighbor attacker is given only the fields
that cross the wire; its accuracy should sit at chance. The same attacker
pointed at the raw frames must succeed, proving the attack is competent
and the chance-level result is not vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import RunConfig
from ..errors import ValidationError
# encode_png is unused here; perfbench/trace.py wraps the name
# proxycam.audit.attack.encode_png
from ..pngio import decode_png, encode_png
from ..proxy import support
from ..raster import embed, grid_pool, luminance
from ..runner import build_tuple, us_per_frame
from ..sim.generate import generate_scene
from ..sim.scripts import make_solo_scene
from ..edge.pipeline import EdgeState, process_frame
from ..cloud.reconstruct import reconstruct, render_proxies
from ..transport.codec import decode, encode
from ..transport.model import RepresentationTuple

MIN_CHANNEL_DISTANCE = 64
# every enrolment and probe scene: one camera at this size, this long
WIDTH, HEIGHT = 320, 240
FRAMES_PER_SCENE = 10
# every gallery actor has this body height, so geometry cannot tell them apart
ACTOR_HEIGHT_PX = 120
# the attack passes at accuracy <= chance + ATTACK_MARGIN; its raw-frame
# control must reach CONTROL_BOUND for the verdict to count
ATTACK_MARGIN = 0.05
CONTROL_BOUND = 0.95

_CLOTHING = [
    (48, 48, 48),
    (216, 48, 48),
    (48, 216, 48),
    (48, 48, 216),
    (216, 216, 48),
    (216, 48, 216),
    (48, 216, 216),
    (216, 216, 216),
]
_SKIN = [
    (236, 188, 160),
    (224, 172, 140),
    (208, 156, 124),
    (188, 136, 104),
    (164, 116, 88),
    (140, 96, 72),
    (116, 80, 60),
    (92, 64, 48),
]


@dataclass(frozen=True)
class GalleryActor:
    actor_id: str
    clothing: tuple[int, int, int]
    skin: tuple[int, int, int]


@dataclass(frozen=True)
class AttackGallery:
    actors: tuple[GalleryActor, ...]

    def validate(self) -> None:
        if len(self.actors) < 2:
            raise ValidationError("gallery needs at least two actors")
        for i, a in enumerate(self.actors):
            for b in self.actors[i + 1 :]:
                dist = max(abs(x - y) for x, y in zip(a.clothing, b.clothing))
                if dist < MIN_CHANNEL_DISTANCE:
                    raise ValidationError(
                        f"actors {a.actor_id} and {b.actor_id} have appearance "
                        f"channel distance {dist} < {MIN_CHANNEL_DISTANCE}"
                    )


@dataclass(frozen=True)
class AttackResult:
    probes: int
    accuracy: float
    chance: float
    ci95: tuple[float, float]
    control_accuracy: float

    @property
    def at_chance(self) -> bool:
        return self.accuracy <= self.chance + ATTACK_MARGIN

    @property
    def control_valid(self) -> bool:
        return self.control_accuracy >= CONTROL_BOUND


def build_gallery(n: int = 8) -> AttackGallery:
    if not 2 <= n <= len(_CLOTHING):
        raise ValidationError(f"gallery size must be in [2, {len(_CLOTHING)}]")
    actors = tuple(
        GalleryActor(actor_id=f"g{i}", clothing=_CLOTHING[i], skin=_SKIN[i])
        for i in range(n)
    )
    gallery = AttackGallery(actors=actors)
    gallery.validate()
    return gallery


def _run_scene(scene):
    """Run a scene through the oracle edge; return the last frame's tuple
    as the cloud decodes it from the wire, its raw frame, and its ground
    truth.

    The attack keeps this loop rather than `run_edge`'s. It reads one
    frame per scene, and `run_edge` would add a gate and an encode on each
    of the other nine: about 1.2 s of the benchmark's `audit` round,
    estimated from per-layer traced figures, not measured. `run_edge` would
    also bypass this module's `process_frame` name, on which the
    benchmark's calibrated clock samples.
    """
    frames, gts = generate_scene(scene)
    state = EdgeState(scene.width, scene.height)
    out = None
    for frame, gt in zip(frames, gts):
        out = process_frame(state, frame, gt)
    last = len(frames) - 1
    t = build_tuple(out, 0, last, last * us_per_frame(RunConfig().fps))
    return decode(encode(t)), frames[-1], gts[-1]


def _wire_features(t: RepresentationTuple, width: int, height: int) -> np.ndarray:
    """Attacker view: everything it can compute from tuple fields alone.

    The first 64 features embed the reconstruction, which is byte-equal to
    the edge composite of the same frame.
    """
    env = decode_png(t.env_png)
    env_stats = grid_pool(luminance(env), 8, 8).ravel() / 255.0
    proxies = render_proxies(t.poses, (width, height))
    embedding = embed(reconstruct(env, proxies)).astype(np.float64)
    painted = support(proxies, (width, height))
    occupancy = grid_pool(painted * 255.0, 8, 8).ravel() / 255.0
    return np.concatenate([embedding, env_stats, occupancy])


def _raw_features(raw: np.ndarray, gt) -> np.ndarray:
    """Control view: mean appearance color inside the true subject mask."""
    mask = gt.joint_mask()
    if not mask.any():
        return np.zeros(3)
    return raw[mask].mean(axis=0) / 255.0


def _nearest(feature: np.ndarray, bank: list[tuple[str, np.ndarray]]) -> str:
    best_id, best_d = bank[0][0], math.inf
    for actor_id, ref in bank:
        d = float(np.linalg.norm(feature - ref))
        if d < best_d:
            best_id, best_d = actor_id, d
    return best_id


def _observe(rng: np.random.Generator, actor: GalleryActor) -> tuple[np.ndarray, np.ndarray]:
    """The wire and raw-frame features of one fresh solo scene of `actor`,
    whose script seed is the next draw of `rng`."""
    scene = make_solo_scene(
        seed=int(rng.integers(0, 2**63)),
        actor_id=actor.actor_id,
        clothing=actor.clothing,
        skin=actor.skin,
        width=WIDTH,
        height=HEIGHT,
        frame_count=FRAMES_PER_SCENE,
        height_px=ACTOR_HEIGHT_PX,
    )
    t, raw, gt = _run_scene(scene)
    return _wire_features(t, WIDTH, HEIGHT), _raw_features(raw, gt)


def identity_attack(
    gallery: AttackGallery,
    probe_scenes: int,
    seed: int,
    enroll_per_actor: int = 3,
) -> AttackResult:
    """Nearest-neighbor re-identification over wire-visible features.

    Every enrollment and probe scene is a fresh solo scene with a random
    script, so pose and position carry no identity information; body
    height is shared across the gallery by construction. Each probe draws
    its actor from the whole gallery, then its scene's seed.
    """
    if probe_scenes < 1:
        raise ValidationError("probes must be >= 1")
    gallery.validate()
    rng = np.random.default_rng(seed)

    wire_bank: list[tuple[str, np.ndarray]] = []
    raw_bank: list[tuple[str, np.ndarray]] = []
    for actor in gallery.actors:
        for _ in range(enroll_per_actor):
            wire, raw = _observe(rng, actor)
            wire_bank.append((actor.actor_id, wire))
            raw_bank.append((actor.actor_id, raw))

    hits = 0
    control_hits = 0
    for _ in range(probe_scenes):
        actor = gallery.actors[int(rng.integers(0, len(gallery.actors)))]
        wire, raw = _observe(rng, actor)
        hits += _nearest(wire, wire_bank) == actor.actor_id
        control_hits += _nearest(raw, raw_bank) == actor.actor_id

    accuracy = hits / probe_scenes
    half = 1.96 * math.sqrt(max(accuracy * (1.0 - accuracy), 1e-12) / probe_scenes)
    return AttackResult(
        probes=probe_scenes,
        accuracy=accuracy,
        chance=1.0 / len(gallery.actors),
        ci95=(max(0.0, accuracy - half), min(1.0, accuracy + half)),
        control_accuracy=control_hits / probe_scenes,
    )
