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
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .edge.pipeline import EdgeParams
from .errors import ValidationError
from .transport.model import U32_MAX


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


def _make(cls, payload, where: str):
    if not isinstance(payload, dict):
        raise ValidationError(f"{where} must be a JSON object, got {payload!r}")
    names = {f.name for f in fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    return cls(**payload)  # every key names a field, and every field has a default


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    for name, cls in (("edge", EdgeParams), ("transport", TransportConfig)):
        section = data.get(name)
        data[name] = _make(cls, {} if section is None else section, name)
    config = _make(RunConfig, data, "config")
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def validate_config(config: RunConfig) -> None:
    """Refuse a value of the wrong type or range. A bool is not a number."""
    if not _is_int(config.seed) or config.seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {config.seed!r}")
    if not _is_int(config.camera_id) or not 0 <= config.camera_id <= U32_MAX:
        raise ValidationError(f"camera_id must be an integer in u32, got {config.camera_id!r}")
    if not _is_real(config.fps) or config.fps <= 0:
        raise ValidationError(f"fps must be a positive number, got {config.fps!r}")
    sigma = config.edge.noise_sigma
    if not _is_real(sigma) or sigma < 0:
        raise ValidationError(f"edge.noise_sigma must be a number >= 0, got {sigma!r}")
    if not isinstance(config.out_dir, str):
        raise ValidationError(f"out_dir must be a string, got {config.out_dir!r}")
    addresses = ((f"transport.{k}", v) for k, v in vars(config.transport).items())
    for name, value in (("scene", config.scene), *addresses):
        if value is not None and not isinstance(value, str):
            raise ValidationError(f"{name} must be a string, got {value!r}")
    if config.scene is not None and not Path(config.scene).exists():
        raise ValidationError(f"scene file '{config.scene}' does not exist")
