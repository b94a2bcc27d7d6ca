"""The run config: reward weights, the stage-1 tracking scales and the
kinematic tracking model, with bit-exact YAML round-trip through one
fields-driven codec (`to_dict`, `from_dict`) that scenarios share."""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .errors import ParseError, ValidationError
from .rewards import RewardWeights


@dataclass(frozen=True)
class TrackingConfig:
    """Kinematic stand-in for the trained policy's tracking behavior."""

    tau_base: float = 0.0        # base velocity first-order lag, seconds
    ee_rate: float = 8.0         # EE exponential convergence rate, 1/s
    noise_pos: float = 0.0       # EE position noise sigma, meters
    noise_ori: float = 0.0       # EE orientation noise sigma, radians

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            bound = "> 0" if f.name == "ee_rate" else ">= 0"
            if not math.isfinite(value) or value < 0 or (bound == "> 0" and value == 0):
                raise ValueError(f.name, f"must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class Config:
    reward_weights: RewardWeights = field(default_factory=RewardWeights)
    gamma_xy: float = 0.25
    gamma_w: float = 0.25
    f_target: float = 2.0
    tracking: TrackingConfig = field(default_factory=TrackingConfig)

    def __post_init__(self):
        for name in ("gamma_xy", "gamma_w"):  # the tracking rewards divide by them
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(name, f"must be finite and > 0, got {value!r}")

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            yaml.dump(to_dict(self), fh, Dumper=YAML_DUMPER, sort_keys=True)

    @staticmethod
    def load(path) -> "Config":
        return from_dict(Config, read_file(path))

    def digest(self) -> str:
        text = yaml.dump(to_dict(self), Dumper=YAML_DUMPER, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


# libyaml's parser and emitter where PyYAML has them; they resolve and
# represent scalars as SafeLoader and SafeDumper do
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def read_file(path, parse=functools.partial(yaml.load, Loader=YAML_LOADER)):
    """`parse` applied to the UTF-8 text of `path` (a YAML document by
    default). Text that is not UTF-8, or that `parse` rejects as YAML or CSV,
    raises ParseError naming the path, its message on one line; a path that
    cannot be read raises OSError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh)
    except (UnicodeDecodeError, yaml.YAMLError, csv.Error) as exc:
        raise ParseError(f"{path}: {' '.join(str(exc).split())}") from exc


def to_dict(obj):
    """Plain YAML data for a config value: dataclasses become mappings of
    their fields, tuples and arrays become lists and enums their values."""
    if is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_dict(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    return obj


@functools.cache
def _hints(cls) -> dict:
    return get_type_hints(cls)


def _number(data, where: str) -> float:
    if isinstance(data, bool) or not isinstance(data, (int, float)) \
            or not abs(data) <= sys.float_info.max:
        raise ValidationError(f"{where}: expected a number, got {data!r}")
    return float(data)


def from_dict(cls, data, where: str = "config"):
    """Build `cls` from YAML data, checking it against the type hints.

    A key missing from a mapping takes the field's default. Anything else
    that does not fit raises ValidationError naming the dotted location: a
    `__post_init__` that raises `ValueError(message)` is located at the
    record, one that raises `ValueError(field, message)` at that field.
    An `np.ndarray` is 3 numbers, an `Enum` is one of its values."""
    if cls is float:
        return _number(data, where)
    if cls is np.ndarray:
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ValidationError(f"{where}: expected 3 numbers, got {data!r}")
        return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(data)])
    origin, args = get_origin(cls), get_args(cls)
    if origin in (Union, UnionType) and type(None) in args:
        if data is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return from_dict(inner, data, where)
    if is_dataclass(cls):
        if not isinstance(data, dict):
            raise ValidationError(f"{where}: expected a mapping, got {data!r}")
        known = {f.name: f for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValidationError(f"{where}.{key}: unknown key")
        for name, f in known.items():
            if name not in data and f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{where}.{name}: missing")
        hints = _hints(cls)
        present = {k: from_dict(hints[k], v, f"{where}.{k}") for k, v in data.items()}
        try:
            return cls(**present)
        except ValueError as exc:
            at = f"{where}.{exc.args[0]}" if len(exc.args) == 2 else where
            raise ValidationError(f"{at}: {exc.args[-1]}") from None
    if origin in (tuple, list):
        variadic = origin is list
        if not isinstance(data, (list, tuple)) or (not variadic and len(data) != len(args)):
            size = "" if variadic else f"{len(args)} "
            raise ValidationError(f"{where}: expected a list of {size}items, got {data!r}")
        types = [args[0]] * len(data) if variadic else args
        return origin(from_dict(t, v, f"{where}[{i}]")
                      for i, (t, v) in enumerate(zip(types, data)))
    if isinstance(cls, type) and issubclass(cls, Enum):
        values = [m.value for m in cls]
        if data not in values:
            raise ValidationError(f"{where}: {data!r} not one of {values}")
        return cls(data)
    if not isinstance(data, cls) or (cls is int and isinstance(data, bool)):
        raise ValidationError(f"{where}: expected {cls.__name__}, got {data!r}")
    return data
