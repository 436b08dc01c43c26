"""Run configuration: one JSON file drives every CLI subcommand.

All tunable thresholds live here with defaults matching the documented
pipeline behavior. Example:

    {
      "scene": "scene.json",
      "seed": 7,
      "out_dir": "out",
      "camera_id": 0,
      "fps": 30,
      "edge": {"noise_sigma": 0, "background_alpha": 0.05,
               "tracker": {"iou_threshold": 0.2, "miss_timeout": 10,
                            "velocity_alpha": 0.5}},
      "classifier": {"fall_vy_frac": 0.08, "fallen_spine_deg": 60},
      "reorder": {"gap_frames": 30},
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

from .cloud.classify import ClassifierParams
from .edge.pipeline import EdgeParams
from .edge.track import TrackerParams
from .errors import ConfigurationError


@dataclass(frozen=True)
class ReorderParams:
    gap_frames: int = 30


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
    classifier: ClassifierParams = field(default_factory=ClassifierParams)
    reorder: ReorderParams = field(default_factory=ReorderParams)
    transport: TransportConfig = field(default_factory=TransportConfig)


def _make(cls, payload: dict, where: str):
    names = {f.name for f in fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigurationError(f"malformed {where} section: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    edge_data = dict(data.pop("edge", {}) or {})
    tracker = _make(
        TrackerParams, dict(edge_data.pop("tracker", {}) or {}), "edge.tracker"
    )
    edge = _make(EdgeParams, {**edge_data, "tracker": tracker}, "edge")
    sections = {
        "edge": edge,
        "classifier": _make(
            ClassifierParams, dict(data.pop("classifier", {}) or {}), "classifier"
        ),
        "reorder": _make(ReorderParams, dict(data.pop("reorder", {}) or {}), "reorder"),
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
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return data


def validate_config(config: RunConfig) -> None:
    if config.scene is not None and not Path(config.scene).exists():
        raise ConfigurationError(f"scene file '{config.scene}' does not exist")
    if not 0.0 < config.edge.background_alpha <= 1.0:
        raise ConfigurationError("edge.background_alpha must be in (0, 1]")
    if not 0.0 <= config.edge.tracker.iou_threshold <= 1.0:
        raise ConfigurationError("tracker.iou_threshold must be in [0, 1]")
    if config.edge.tracker.miss_timeout < 0:
        raise ConfigurationError("tracker.miss_timeout must be >= 0")
    if not 0.0 <= config.edge.tracker.velocity_alpha <= 1.0:
        raise ConfigurationError("tracker.velocity_alpha must be in [0, 1]")
    if config.edge.noise_sigma < 0.0:
        raise ConfigurationError("edge.noise_sigma must be >= 0")
    if config.fps <= 0:
        raise ConfigurationError("fps must be positive")
    if config.reorder.gap_frames < 1:
        raise ConfigurationError("reorder.gap_frames must be >= 1")
    for name in (
        "fall_vy_frac",
        "fallen_spine_deg",
        "fallen_aspect",
        "sit_gap_frac",
        "sit_spine_deg",
        "walk_speed_frac",
        "stand_spine_deg",
    ):
        if getattr(config.classifier, name) <= 0:
            raise ConfigurationError(f"classifier.{name} must be positive")
