"""Experiment configuration: a versioned JSON schema with field-path
validation, canonical hashing, and the default benchmark setup (a
fourth-order lowpass plant sampled at 0.1 s, 1-8 bits, oversampling 1-4,
loading factor 4, colored first-order input)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .spectral import FrequencyGrid, MIN_N_POINTS
from .transfer import ContinuousTF

SCHEMA_VERSION = 1

FIT_METHODS = ("qcqp", "yw")
INPUT_KINDS = ("colored", "white")


@dataclass(frozen=True)
class PlantConfig:
    num: tuple[float, ...]
    den: tuple[float, ...]
    sample_period: float


@dataclass(frozen=True)
class FitConfig:
    method: str = "qcqp"
    order: int = 4


@dataclass(frozen=True)
class SimConfig:
    length: int = 1_000_000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    input_kind: str = "colored"
    ct_pole: float = 2.62


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantConfig
    bits_list: tuple[int, ...] = tuple(range(1, 9))
    lambda_list: tuple[int, ...] = (1, 2, 3, 4)
    loading_factor: float = 4.0
    n_points: int = 8192
    fit: FitConfig = field(default_factory=FitConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def plant_tf(self) -> ContinuousTF:
        return ContinuousTF(self.plant.num, self.plant.den, self.plant.sample_period)

    def grid(self) -> FrequencyGrid:
        return FrequencyGrid(self.n_points)


def default_config() -> ExperimentConfig:
    """The benchmark setup: fourth-order analog plant, T = 0.1 s."""
    return ExperimentConfig(
        plant=PlantConfig(
            num=(1.029, 4.589, 7.146, 3.882),
            den=(1.0, 5.088, 9.789, 8.296, 2.548),
            sample_period=0.1,
        )
    )


def _require(problems: list[str], condition: bool, path: str, message: str) -> None:
    if not condition:
        problems.append(f"{path}: {message}")


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError listing every violated field by dotted path."""
    problems: list[str] = []
    try:
        cfg.plant_tf()
    except ValueError as exc:
        problems.append(f"plant: {exc}")
    _require(problems, bool(cfg.bits_list), "bits_list", "must be nonempty")
    for i, b in enumerate(cfg.bits_list):
        _require(problems, isinstance(b, int) and b >= 1, f"bits_list[{i}]", f"must be a positive integer, got {b!r}")
    _require(problems, bool(cfg.lambda_list), "lambda_list", "must be nonempty")
    for i, lam in enumerate(cfg.lambda_list):
        _require(
            problems, isinstance(lam, int) and lam >= 1, f"lambda_list[{i}]", f"must be a positive integer, got {lam!r}"
        )
    _require(
        problems, 0 < cfg.loading_factor < math.inf, "loading_factor", f"must be a finite positive number, got {cfg.loading_factor!r}"
    )
    _require(
        problems,
        isinstance(cfg.n_points, int) and cfg.n_points >= MIN_N_POINTS,
        "n_points",
        f"must be an integer >= {MIN_N_POINTS}, got {cfg.n_points!r}",
    )
    _require(problems, cfg.fit.method in FIT_METHODS, "fit.method", f"must be one of {FIT_METHODS}, got {cfg.fit.method!r}")
    _require(
        problems, isinstance(cfg.fit.order, int) and cfg.fit.order >= 1, "fit.order", f"must be a positive integer, got {cfg.fit.order!r}"
    )
    _require(
        problems, isinstance(cfg.sim.length, int) and cfg.sim.length >= 1, "sim.length", f"must be a positive integer, got {cfg.sim.length!r}"
    )
    _require(problems, bool(cfg.sim.seeds), "sim.seeds", "must be nonempty")
    for i, s in enumerate(cfg.sim.seeds):
        _require(problems, isinstance(s, int) and s >= 0, f"sim.seeds[{i}]", f"must be a nonnegative integer, got {s!r}")
    _require(
        problems, cfg.sim.input_kind in INPUT_KINDS, "sim.input_kind", f"must be one of {INPUT_KINDS}, got {cfg.sim.input_kind!r}"
    )
    _require(
        problems, 0 < cfg.sim.ct_pole < math.inf, "sim.ct_pole", f"must be a finite positive number, got {cfg.sim.ct_pole!r}"
    )
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["schema_version"] = SCHEMA_VERSION
    return d


def _integer(value, path: str) -> int:
    """An integral number (6e4 included) as an int; a bool, a string or a
    fractional or non-finite number raises ConfigError naming ``path``."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(value)


def _real(value, path: str) -> float:
    """A JSON number as a float; a bool, a string or any other value raises
    ConfigError naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    return float(value)


def _text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string, got {value!r}")
    return value


_SCALARS = {int: _integer, float: _real, str: _text}


def _value(kind, value, path: str):
    """``value`` read as the field type ``kind``: a dataclass from a JSON
    object, a tuple from a list, or a scalar."""
    if dataclasses.is_dataclass(kind):
        return _section(kind, value, path)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    return _SCALARS[kind](value, path)


def _section(cls, data, path: str):
    """The dataclass ``cls`` from the JSON object ``data``, each field read by
    its type; an absent field takes its default. An unknown or missing field
    raises ConfigError naming its dotted path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be a JSON object, got {data!r}")
    prefix = f"{path}." if path else ""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigError("; ".join(f"{prefix}{name}: unknown field" for name in unknown))
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name in data:
            values[f.name] = _value(hints[f.name], data[f.name], prefix + f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{prefix}{f.name}: required field is missing")
    return cls(**values)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported value {version!r} (expected {SCHEMA_VERSION})")
    cfg = _section(ExperimentConfig, {k: v for k, v in data.items() if k != "schema_version"}, "")
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance, exact
    binary64 round-trip for floats (repr formatting)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()
