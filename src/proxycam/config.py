"""Run configuration, and the one reader of every JSON input.

A run config holds the run's inputs and its deployment settings, and
nothing else: the tracker, background, classifier and reorder thresholds
are constants of the modules that read them. Every key, with its default
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

Config files and scene files (`sim.spec`) are read by the same rules,
`read_json` and `from_json`, and any breach is a ValidationError: the
file must hold a JSON object; every key must name a field of the
dataclass it fills, and every field without a default must be given; a
value must have its field's type. An `int` field takes a JSON integer
and a `float` field any finite JSON number (a bool is neither), a `str`
field a string, a dataclass field an object read by the same rules, and
a tuple field an array of its length (a list or a tuple, so a spec
round-trips through `dataclasses.asdict`). Ranges are checked after
that, by `validate_config` and `validate_scene_spec`.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the `what` ("config" or "scene") file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValidationError(f"cannot parse {what} {path} as JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return data


def from_json(cls, payload, where: str):
    """A `cls` built from the JSON object `payload` by the rules above;
    `where` names it in an error."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{where} must be a JSON object, got {payload!r}")
    known = fields(cls)
    unknown = set(payload) - {f.name for f in known}
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    missing = [
        f.name for f in known
        if f.name not in payload and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValidationError(f"{where} is missing required keys: {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: _value(v, hints[k], f"{where}.{k}") for k, v in payload.items()})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _value(value, hint, where: str):
    if is_dataclass(hint):
        return from_json(hint, value, where)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # `str | None`
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
    elif typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{where} must be an array, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise ValidationError(f"{where} must be an array of {len(args)}, got {value!r}")
        return tuple(_value(v, h, f"{where}[{i}]") for i, (v, h) in enumerate(zip(value, args)))
    if hint is float and _is_real(value):
        return float(value)
    if (hint is int and _is_int(value)) or (hint is str and isinstance(value, str)):
        return value
    kind = {int: "an integer", float: "a finite number", str: "a string"}[hint]
    raise ValidationError(f"{where} must be {kind}, got {value!r}")


def config_from_dict(data: dict) -> RunConfig:
    config = from_json(RunConfig, data, "config")
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    """Refuse a value out of its range; `from_json` has checked the types."""
    if config.seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {config.seed!r}")
    if not 0 <= config.camera_id <= U32_MAX:
        raise ValidationError(f"camera_id must be an integer in u32, got {config.camera_id!r}")
    if config.fps <= 0:
        raise ValidationError(f"fps must be a positive number, got {config.fps!r}")
    sigma = config.edge.noise_sigma
    if sigma < 0:
        raise ValidationError(f"edge.noise_sigma must be a number >= 0, got {sigma!r}")
