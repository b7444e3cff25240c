"""Experiment configuration: strict JSON parsing with defaults.

The config dataclasses are the schema.  Parsing, unknown-key rejection and
the hashed effective view are all derived from their fields and type
hints, so a field cannot be parsed and then left out of the hash.  Unknown
keys and values of the wrong type are rejected with the dotted key.  A run
directory persists the effective view, so it re-parses to the run's hash.
"""

from __future__ import annotations

import hashlib
import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .data import SplitSpec, SynthSpec
from .errors import ConfigError, require_at_least_one
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class DataConfig:
    kind: str = "synthetic"
    path: str | None = None
    descriptor: str | None = None
    expected_nodes: int | None = None
    expected_modalities: int | None = None
    input_steps: int = 16
    output_steps: int = 3
    stride: int = 1
    split: SplitSpec = field(default_factory=SplitSpec)
    synthetic: SynthSpec | None = None
    synthetic_seed: int | None = None

    def __post_init__(self):
        require_at_least_one(self, "input_steps", "output_steps", "stride")


@dataclass
class RunConfig:
    name: str = "run"
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def effective_dict(self) -> dict:
        """Fully defaulted view of the configuration, hashed and persisted into run directories."""
        return _plain(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.effective_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _plain(value):
    """JSON form of a config value: the inverse of ``_coerce``."""
    if isinstance(value, SplitSpec):
        return [value.train, value.val, value.test]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return np.asarray(value).tolist()
    return value


def _check_keys(section: dict, allowed: list[str], context: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {context}; allowed keys: {sorted(allowed)}")


def _build(cls, section, path: str):
    """Instantiate dataclass ``cls`` from a JSON object found at dotted ``path``."""
    context = path or "config root"
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a JSON object, got {section!r}")
    schema = fields(cls)
    _check_keys(section, [f.name for f in schema], context)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in schema:
        if f.name in section:
            key = f"{path}.{f.name}" if path else f.name
            kwargs[f.name] = _coerce(hints[f.name], section[f.name], key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key '{f.name}' in {context}")
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _coerce(tp, value, key: str):
    """Check a JSON value against a field type and convert it to that type."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if tp is SplitSpec:
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"{key} must be a list of three fractions")
        try:
            return SplitSpec(*(_coerce(float, v, key) for v in value))
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if is_dataclass(tp):
        return _build(tp, value, key)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_coerce(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{key} must be {tp.__name__}, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _build(RunConfig, doc, "")
    data = cfg.data
    if data.kind not in ("synthetic", "csv", "prepared"):
        raise ConfigError(f"data.kind must be synthetic, csv, or prepared; got {data.kind!r}")
    if data.kind in ("csv", "prepared") and not data.path:
        raise ConfigError(f"data.kind={data.kind!r} requires data.path")
    if data.kind == "synthetic" and data.synthetic is None:
        raise ConfigError("data.kind='synthetic' requires a data.synthetic section")
    cfg.model.check_input_steps(data.input_steps, "data.input_steps")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"config file {path} cannot be read: {reason}") from exc
    return parse_config(text)
