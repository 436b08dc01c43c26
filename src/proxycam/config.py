"""Run configuration: one JSON file drives every CLI subcommand.

It holds the run's inputs and its deployment settings, and nothing
else: the tracker, background, classifier and reorder thresholds are
constants of the modules that read them. Every key, with its default
where it has one:

    {
      "scene": "scene.json",
      "seed": 0,
      "out_dir": "out",
      "camera_id": 0,
      "fps": 30,
      "edge": {"noise_sigma": 0},
      "transport": {"connect": "127.0.0.1:7700"}
    }

The transport follows from the address that is set: `edge` sends to
`transport.connect` over TCP, or else writes `packets.bin`; `cloud`
takes one stream on `transport.listen` or reads `transport.replay`, and
refuses both at once. The reorder limit counts frames, never seconds.

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .edge.pipeline import EdgeParams
from .errors import ValidationError


@dataclass(frozen=True)
class TransportConfig:
    listen: str | None = None
    connect: str | None = None
    replay: str | None = None


@dataclass(frozen=True)
class RunConfig:
    scene: str | None = None
    seed: int = 0
    out_dir: str = "out"
    camera_id: int = 0
    fps: float = 30.0
    edge: EdgeParams = field(default_factory=EdgeParams)
    transport: TransportConfig = field(default_factory=TransportConfig)


def _make(cls, payload: dict, where: str):
    names = {f.name for f in fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ValidationError(f"malformed {where} section: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    sections = {
        "edge": _make(EdgeParams, dict(data.pop("edge", {}) or {}), "edge"),
        "transport": _make(
            TransportConfig, dict(data.pop("transport", {}) or {}), "transport"
        ),
    }
    config = _make(RunConfig, {**data, **sections}, "config")
    validate_config(config)
    return config


def read_config(path: str | Path) -> dict:
    """The JSON object in a config file, for `config_from_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return data


def validate_config(config: RunConfig) -> None:
    if config.scene is not None and not Path(config.scene).exists():
        raise ValidationError(f"scene file '{config.scene}' does not exist")
    if config.edge.noise_sigma < 0.0:
        raise ValidationError("edge.noise_sigma must be >= 0")
    if config.fps <= 0:
        raise ValidationError("fps must be positive")
