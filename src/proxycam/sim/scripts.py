"""Seeded scene builders used by evaluation and the privacy audit.

These produce ordinary SceneSpecs; all randomness comes from the given
seed so every caller gets reproducible scenes. Geometry is chosen so the
whole body (including a lying pose, which extends about 1.1 body heights
toward +x) stays inside the frame.
"""

from __future__ import annotations

import numpy as np

from .spec import ActorSpec, BackgroundSpec, SceneSpec

_BG = BackgroundSpec(kind="flat", colors=((96, 96, 96),))

PROBE_ACTIONS = ("stand", "walk", "sit", "raise_arm")


def _ground_bounds(width: int, height: int, height_px: int) -> tuple[float, float, float, float]:
    x_min = 0.25 * height_px
    x_max = width - 1.2 * height_px - 8
    y_min = 1.05 * height_px + 8
    y_max = height - 0.2 * height_px - 6
    return x_min, x_max, y_min, y_max


def make_solo_scene(
    seed: int,
    actor_id: str = "a0",
    clothing=(200, 50, 50),
    skin=(224, 180, 150),
    width: int = 320,
    height: int = 240,
    frame_count: int = 12,
    height_px: int = 120,
    actions_pool=PROBE_ACTIONS,
) -> SceneSpec:
    """Single-actor scene with one randomly chosen action and position."""
    rng = np.random.default_rng(seed)
    x_min, x_max, y_min, y_max = _ground_bounds(width, height, height_px)
    x0 = float(rng.uniform(x_min, x_max))
    y0 = float(rng.uniform(y_min, y_max))
    action = str(actions_pool[int(rng.integers(0, len(actions_pool)))])
    if action == "walk":
        speed = float(rng.uniform(1.0, 2.5)) * (1 if x0 < (x_min + x_max) / 2 else -1)
        x1 = float(np.clip(x0 + speed * (frame_count - 1), x_min, x_max))
        trajectory = ((0, x0, y0), (frame_count - 1, x1, y0))
    else:
        trajectory = ((0, x0, y0),)
    actor = ActorSpec(
        actor_id=actor_id,
        clothing=tuple(clothing),
        skin=tuple(skin),
        height_px=height_px,
        trajectory=trajectory,
        actions=((0, frame_count, action),),
    )
    return SceneSpec(
        width=width,
        height=height,
        frame_count=frame_count,
        background=_BG,
        actors=(actor,),
        seed=seed,
    )


def make_behavior_scene(
    seed: int,
    width: int = 320,
    height: int = 240,
    clothing=(200, 50, 50),
    skin=(224, 180, 150),
) -> SceneSpec:
    """Single-actor scene with a mixed stand/walk/sit/fall script.

    Roughly half the seeds end in a fall (held to the end of the scene);
    the rest include a sit phase, so a batch of these scenes exercises
    both the fall-recall and the false-alarm side of the classifier.
    """
    rng = np.random.default_rng(seed)
    height_px = int(rng.integers(100, 131))
    x_min, x_max, y_min, y_max = _ground_bounds(width, height, height_px)
    x = float(rng.uniform(x_min, x_max))
    y = float(rng.uniform(y_min, y_max))

    include_fall = bool(rng.integers(0, 2))
    phases: list[str] = ["stand"]
    middle_pool = ["walk", "stand", "sit"] if not include_fall else ["walk", "stand"]
    for _ in range(int(rng.integers(2, 4))):
        phases.append(str(middle_pool[int(rng.integers(0, len(middle_pool)))]))
    if include_fall:
        phases.append("fall")
    elif "sit" not in phases:
        phases.append("sit")

    actions: list[tuple[int, int, str]] = []
    trajectory: list[tuple[int, float, float]] = [(0, x, y)]
    cursor = 0
    for i, phase in enumerate(phases):
        if phase == "fall":
            duration = int(rng.integers(30, 46))
        elif phase == "sit":
            duration = int(rng.integers(32, 48))
        else:
            duration = int(rng.integers(22, 40))
        end = cursor + duration
        actions.append((cursor, end, phase))
        if phase == "walk":
            # pin the position at the phase start so only walk phases move
            trajectory.append((cursor, x, y))
            speed = float(rng.uniform(1.2, 2.4))
            direction = 1.0 if x < (x_min + x_max) / 2 else -1.0
            x = float(np.clip(x + direction * speed * duration, x_min, x_max))
            trajectory.append((end - 1, x, y))
        cursor = end
    frame_count = cursor
    trajectory.append((frame_count - 1, x, y))

    actor = ActorSpec(
        actor_id="a0",
        clothing=tuple(clothing),
        skin=tuple(skin),
        height_px=height_px,
        trajectory=tuple(trajectory),
        actions=tuple(actions),
    )
    return SceneSpec(
        width=width,
        height=height,
        frame_count=frame_count,
        background=_BG,
        actors=(actor,),
        seed=seed,
    )
