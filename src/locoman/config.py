"""Config file family: reward weights, PD gains, command ranges, domain
randomization, and harness defaults, with bit-exact YAML round-trip through
one fields-driven codec (`to_dict`, `from_dict`)."""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ParseError, ValidationError
from .rewards import PdGains, RewardWeights
from .sampling import CommandRanges, RandomizationConfig


@dataclass(frozen=True)
class TrackingConfig:
    """Kinematic stand-in for the trained policy's tracking behavior."""

    tau_base: float = 0.0        # base velocity first-order lag, seconds
    ee_rate: float = 8.0         # EE exponential convergence rate, 1/s
    noise_pos: float = 0.0       # EE position noise sigma, meters
    noise_ori: float = 0.0       # EE orientation noise sigma, radians


@dataclass(frozen=True)
class Config:
    reward_weights: RewardWeights = field(default_factory=RewardWeights)
    pd_gains: PdGains = field(default_factory=PdGains)
    gamma_xy: float = 0.25
    gamma_w: float = 0.25
    f_target: float = 2.0
    command_ranges: dict[str, CommandRanges] = field(default_factory=lambda: {
        "train": CommandRanges.train(),
        "eval": CommandRanges.eval(),
        "roboduet": CommandRanges.roboduet(),
    })
    randomization: RandomizationConfig = field(default_factory=RandomizationConfig)
    tracking: TrackingConfig = field(default_factory=TrackingConfig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(to_dict(self), fh, sort_keys=True)

    @staticmethod
    def load(path) -> "Config":
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        return from_dict(Config, data)

    def digest(self) -> str:
        text = yaml.safe_dump(to_dict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def to_dict(obj):
    """Plain YAML data for a config value: dataclasses become mappings of
    their fields and tuples become lists."""
    if is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_dict(v) for k, v in obj.items()}
    return obj


def from_dict(cls, data, where: str = "config"):
    """Build `cls` from YAML data, checking it against the type hints.

    A key missing from a mapping takes the field's default. Anything else
    that does not fit raises ValidationError naming the dotted location."""
    origin, args = get_origin(cls), get_args(cls)
    if is_dataclass(cls) or origin is dict:
        if not isinstance(data, dict):
            raise ValidationError(f"{where}: expected a mapping, got {data!r}")
        if origin is dict:
            return {from_dict(args[0], k, f"{where}.{k}"): from_dict(args[1], v, f"{where}.{k}")
                    for k, v in data.items()}
        known = {f.name: f for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValidationError(f"{where}.{key}: unknown key")
        for name, f in known.items():
            if name not in data and f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{where}.{name}: missing")
        hints = get_type_hints(cls)
        present = {k: from_dict(hints[k], v, f"{where}.{k}") for k, v in data.items()}
        try:
            return cls(**present)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    if origin is tuple:
        variadic = len(args) == 2 and args[1] is Ellipsis
        if not isinstance(data, (list, tuple)) or (not variadic and len(data) != len(args)):
            size = "" if variadic else f"{len(args)} "
            raise ValidationError(f"{where}: expected a list of {size}items, got {data!r}")
        types = [args[0]] * len(data) if variadic else args
        return tuple(from_dict(t, v, f"{where}[{i}]")
                     for i, (t, v) in enumerate(zip(types, data)))
    if cls is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise ValidationError(f"{where}: expected a number, got {data!r}")
        return float(data)
    if not isinstance(data, cls):
        raise ValidationError(f"{where}: expected {cls.__name__}, got {data!r}")
    return data
