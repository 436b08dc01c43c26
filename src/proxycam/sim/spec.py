"""Scene description types and their JSON form.

A scene spec is the complete input to the simulator: canvas size, a
background, and a list of scripted actors. Generation is a pure function
of the spec, so specs double as reproducible test fixtures.

JSON schema (see README for a worked example):

    {
      "width": 320, "height": 240, "frame_count": 300, "seed": 7,
      "background": {"kind": "flat", "colors": [[96, 96, 96]]},
      "actors": [
        {
          "actor_id": "a0",
          "clothing": [200, 40, 40],
          "skin": [224, 180, 150],
          "height_px": 120,
          "trajectory": [[0, 80.0, 200.0], [299, 240.0, 200.0]],
          "actions": [[0, 100, "stand"], [100, 300, "walk"]]
        }
      ]
    }

Background kinds: "flat" (one color), "checker" (two colors plus "cell"),
"gradient" (top-to-bottom blend of two colors). Trajectory waypoints are
(frame, x, y) with the position interpolated piecewise-linearly; (x, y) is
the actor's ground point (ankle midpoint). Action ranges are [start, end)
and must cover every frame exactly once. "seed" records the seed a scene
script was built from; no stage reads it.

A scene file is read by the config's rules (see `config`), so the
defaults are those of the dataclasses below. `validate_scene_spec` then
checks the ranges; it is the only check on a spec built in Python.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..config import from_json, read_json
from ..errors import ValidationError

ACTIONS = ("stand", "walk", "sit", "fall", "raise_arm")

MAX_ACTORS = 16
MIN_DIMENSION = 64
# the wire carries joint coordinates below 4096 px (see transport.codec)
MAX_DIMENSION = 4096

Color = tuple[int, int, int]


@dataclass(frozen=True)
class BackgroundSpec:
    kind: str = "flat"
    colors: tuple[Color, ...] = ((96, 96, 96),)
    cell: int = 16

    def validate(self) -> None:
        if self.kind not in ("flat", "checker", "gradient"):
            raise ValidationError(f"background.kind '{self.kind}' is not recognised")
        need = 1 if self.kind == "flat" else 2
        if len(self.colors) < need:
            raise ValidationError(
                f"background.colors needs {need} entries for kind '{self.kind}'"
            )
        if self.kind == "checker" and self.cell < 1:
            raise ValidationError("background.cell must be >= 1")


@dataclass(frozen=True)
class ActorSpec:
    actor_id: str
    clothing: Color
    skin: Color
    height_px: int
    trajectory: tuple[tuple[int, float, float], ...]
    actions: tuple[tuple[int, int, str], ...]

    def position_at(self, frame_idx: int) -> tuple[float, float]:
        """Piecewise-linear trajectory interpolation, clamped at the ends."""
        pts = self.trajectory
        if frame_idx <= pts[0][0]:
            return (pts[0][1], pts[0][2])
        if frame_idx >= pts[-1][0]:
            return (pts[-1][1], pts[-1][2])
        for (f0, x0, y0), (f1, x1, y1) in zip(pts, pts[1:]):
            if f0 <= frame_idx <= f1:
                t = (frame_idx - f0) / (f1 - f0) if f1 > f0 else 0.0
                return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        return (pts[-1][1], pts[-1][2])

    def action_at(self, frame_idx: int) -> tuple[int, int, str]:
        for start, end, action in self.actions:
            if start <= frame_idx < end:
                return (start, end, action)
        raise ValidationError(
            f"actor '{self.actor_id}' has no action covering frame {frame_idx}"
        )


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    frame_count: int
    background: BackgroundSpec = field(default_factory=BackgroundSpec)
    actors: tuple[ActorSpec, ...] = ()
    seed: int = 0


def validate_scene_spec(spec: SceneSpec) -> None:
    """Raise ValidationError naming the first violated field."""
    if spec.width < MIN_DIMENSION or spec.height < MIN_DIMENSION:
        raise ValidationError(
            f"width/height must be >= {MIN_DIMENSION}, got {spec.width}x{spec.height}"
        )
    for name, size in (("width", spec.width), ("height", spec.height)):
        if size > MAX_DIMENSION:
            raise ValidationError(f"{name} must be <= {MAX_DIMENSION}, got {size}")
    if spec.frame_count < 1:
        raise ValidationError("frame_count must be >= 1")
    if not 0 <= spec.seed < 2**64:
        raise ValidationError("seed must be a 64-bit unsigned integer")
    if len(spec.actors) > MAX_ACTORS:
        raise ValidationError(f"actor count must be <= {MAX_ACTORS}")
    spec.background.validate()
    colors = [*spec.background.colors, *(c for a in spec.actors for c in (a.clothing, a.skin))]
    if not all(0 <= channel <= 255 for color in colors for channel in color):
        raise ValidationError("color channels must lie in [0, 255]")

    ids = [a.actor_id for a in spec.actors]
    if len(set(ids)) != len(ids):
        raise ValidationError("actor_id values must be distinct")

    appearances = [(a.clothing, a.skin) for a in spec.actors]
    if len(set(appearances)) != len(appearances):
        raise ValidationError("actor appearance colors must be distinct")

    for actor in spec.actors:
        where = f"actor '{actor.actor_id}'"
        if actor.height_px < 16:
            raise ValidationError(f"{where}: height_px must be >= 16")
        if not actor.trajectory:
            raise ValidationError(f"{where}: trajectory needs at least one waypoint")
        frames = [f for f, _, _ in actor.trajectory]
        if frames != sorted(frames):
            raise ValidationError(f"{where}: trajectory frames must be ascending")
        for f, x, y in actor.trajectory:
            if not (0 <= x <= spec.width and 0 <= y <= spec.height):
                raise ValidationError(
                    f"{where}: trajectory point ({x}, {y}) is outside the frame"
                )
        if not actor.actions:
            raise ValidationError(f"{where}: actions must not be empty")
        spans = sorted(actor.actions)
        cursor = 0
        for start, end, action in spans:
            if action not in ACTIONS:
                raise ValidationError(f"{where}: unknown action '{action}'")
            if start != cursor:
                raise ValidationError(
                    f"{where}: action ranges must tile [0, frame_count), "
                    f"found gap/overlap at frame {start}"
                )
            if end <= start:
                raise ValidationError(f"{where}: empty action range at {start}")
            cursor = end
        if cursor != spec.frame_count:
            raise ValidationError(
                f"{where}: action ranges end at {cursor}, expected {spec.frame_count}"
            )


def scene_spec_from_dict(data: dict) -> SceneSpec:
    spec = from_json(SceneSpec, data, "scene")
    validate_scene_spec(spec)
    return spec


def load_scene_spec(path: str | Path) -> SceneSpec:
    return scene_spec_from_dict(read_json(path, "scene"))


def save_scene_spec(spec: SceneSpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=2)
        fh.write("\n")
