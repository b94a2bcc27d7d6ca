"""Command sampling and episode-level domain randomization.

End-effector targets are drawn terrain-invariantly: the target is formed in
a yaw-only world-aligned frame at a nominal arm-base height, so its
world-frame z never depends on base pitch/roll or terrain offset, and only
then expressed in the (possibly pitched) base frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import (EulerAngles, Pose, SphericalTarget, quat_from_yaw,
                       spherical_to_cartesian)

PI = float(np.pi)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic stream; same seed, same sequence everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def episode_rng(master_seed: int, episode_index: int) -> np.random.Generator:
    """Episode `episode_index`'s stream: the child that `spawn` would give at
    that index, built directly in O(1)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(episode_index,))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class LocomotionCommand:
    x: float
    y: float
    w: float


@dataclass(frozen=True)
class EETarget:
    """6-D end-effector target in the robot base frame."""

    position: np.ndarray
    orientation: EulerAngles


@dataclass(frozen=True)
class CommandRanges:
    """Per-dimension [lo, hi] sampling ranges for commands and EE targets."""

    x: tuple[float, float]
    y: tuple[float, float]
    w: tuple[float, float]
    l_ee: tuple[float, float]
    p_ee: tuple[float, float]
    y_ee: tuple[float, float]
    alpha_ee: tuple[float, float]
    beta_ee: tuple[float, float]
    gamma_ee: tuple[float, float]

    def __post_init__(self):
        for f in fields(self):
            lo, hi = getattr(self, f.name)
            if lo > hi:
                raise ValueError(f"{f.name}: lo {lo} > hi {hi}")


# the paper's command-range table: training, evaluation, and the RoboDuet
# baseline's ranges
COMMAND_RANGES: dict[str, CommandRanges] = {
    "train": CommandRanges(
        x=(-1.00, 1.00), y=(-1.00, 1.00), w=(-1.00, 1.00),
        l_ee=(0.30, 0.65), p_ee=(-0.17 * PI, 0.33 * PI), y_ee=(-0.33 * PI, 0.33 * PI),
        alpha_ee=(-0.50 * PI, 0.50 * PI), beta_ee=(-0.17 * PI, 0.50 * PI),
        gamma_ee=(-0.50 * PI, 0.50 * PI)),
    "eval": CommandRanges(
        x=(-1.50, 1.50), y=(0.00, 0.00), w=(-1.50, 1.50),
        l_ee=(0.20, 0.80), p_ee=(-0.50 * PI, 0.50 * PI), y_ee=(-0.50 * PI, 0.50 * PI),
        alpha_ee=(-0.50 * PI, 0.50 * PI), beta_ee=(-0.50 * PI, 0.50 * PI),
        gamma_ee=(-0.50 * PI, 0.50 * PI)),
    "roboduet": CommandRanges(
        x=(-1.00, 1.00), y=(0.00, 0.00), w=(-0.60, 0.60),
        l_ee=(0.30, 0.70), p_ee=(-0.45 * PI, 0.45 * PI), y_ee=(-0.50 * PI, 0.50 * PI),
        alpha_ee=(-0.45 * PI, 0.45 * PI), beta_ee=(-0.33 * PI, 0.33 * PI),
        gamma_ee=(-0.42 * PI, 0.42 * PI)),
}


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    if lo == hi:
        return float(lo)
    return float(rng.uniform(lo, hi))


def sample_locomotion_command(rng: np.random.Generator,
                              ranges: CommandRanges) -> LocomotionCommand:
    return LocomotionCommand(_uniform(rng, ranges.x), _uniform(rng, ranges.y),
                             _uniform(rng, ranges.w))


def sample_ee_target(rng: np.random.Generator, ranges: CommandRanges,
                     base_pose: Pose,
                     arm_base_offset: np.ndarray = np.zeros(3),
                     nominal_arm_base_height: float = 0.55) -> EETarget:
    """Draw a 6-D end-effector target expressed in the base frame.

    The spherical position sample is placed in a yaw-only frame centered at
    the arm base's horizontal position at nominal_arm_base_height, fixing the
    target's world z independently of base pitch/roll and terrain height.
    """
    spherical = SphericalTarget(_uniform(rng, ranges.l_ee),
                                _uniform(rng, ranges.p_ee),
                                _uniform(rng, ranges.y_ee))
    euler = EulerAngles(_uniform(rng, ranges.alpha_ee),
                        _uniform(rng, ranges.beta_ee),
                        _uniform(rng, ranges.gamma_ee))

    yaw_pose = Pose(base_pose.position.copy(), quat_from_yaw(base_pose.yaw()))
    offset = np.asarray(arm_base_offset, dtype=float)
    center = yaw_pose.transform(offset)
    center[2] = nominal_arm_base_height + offset[2]

    local = spherical_to_cartesian(spherical)
    world_target = center + yaw_pose.transform(local) - yaw_pose.position
    position_base = base_pose.inverse_transform(world_target)
    return EETarget(position_base, euler)


# ---------------------------------------------------------------------------
# domain randomization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomizationEntry:
    parameter: str
    range: tuple[float, float]
    method: str  # "abs" | "add" | "scale" | "interval"

    def __post_init__(self):
        if self.range[0] > self.range[1]:
            raise ValueError(f"{self.parameter}: bad range {list(self.range)}")
        if self.method not in ("abs", "add", "scale", "interval"):
            raise ValueError(f"{self.parameter}: unknown method {self.method!r}")


def default_randomization() -> list[RandomizationEntry]:
    return [
        RandomizationEntry("friction", (0.4, 2.0), "abs"),
        RandomizationEntry("base_mass", (-5.0, 5.0), "add"),
        RandomizationEntry("base_push_x", (-0.5, 0.5), "interval"),
        RandomizationEntry("base_push_y", (-0.5, 0.5), "interval"),
        RandomizationEntry("actuator_gains", (0.8, 1.2), "scale"),
        RandomizationEntry("ee_link_mass", (0.0, 0.2), "add"),
        RandomizationEntry("joint_reset", (0.5, 1.5), "scale"),
        RandomizationEntry("base_reset_x", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_y", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_heading", (-PI, PI), "add"),
        RandomizationEntry("base_reset_vx", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_vy", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_vz", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_roll", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_pitch", (-0.5, 0.5), "add"),
        RandomizationEntry("base_reset_yaw", (-0.5, 0.5), "add"),
    ]


@dataclass(frozen=True)
class RandomizationConfig:
    entries: tuple[RandomizationEntry, ...] = field(
        default_factory=lambda: tuple(default_randomization()))
    push_spacing: float = 5.0   # seconds between push events
    push_jitter: float = 1.0    # +/- jitter on spacing
    push_duration: float = 0.5  # seconds each push lasts


@dataclass(frozen=True)
class PushEvent:
    time: float
    duration: float
    velocity: tuple[float, float]  # world x, y m/s


def sample_episode_randomization(rng: np.random.Generator,
                                 cfg: RandomizationConfig,
                                 horizon: float,
                                 base_values: dict[str, float] | None = None) -> dict:
    """Realize one episode's parameter set.

    "add" entries return base + delta, "scale" base * factor, "abs" the raw
    sample; "interval" entries produce a push-event schedule over the horizon.
    """
    base_values = base_values or {}
    realized: dict[str, float] = {}
    interval_entries: list[RandomizationEntry] = []
    for entry in cfg.entries:
        if entry.method == "interval":
            interval_entries.append(entry)
            continue
        sample = _uniform(rng, entry.range)
        if entry.method == "add":
            realized[entry.parameter] = base_values.get(entry.parameter, 0.0) + sample
        elif entry.method == "scale":
            realized[entry.parameter] = base_values.get(entry.parameter, 1.0) * sample
        else:
            realized[entry.parameter] = sample

    events: list[PushEvent] = []
    if interval_entries:
        t = cfg.push_spacing + float(rng.uniform(-cfg.push_jitter, cfg.push_jitter))
        while t < horizon:
            velocity = tuple(_uniform(rng, e.range) for e in interval_entries)
            if len(velocity) == 1:
                velocity = (velocity[0], 0.0)
            events.append(PushEvent(t, cfg.push_duration, velocity[:2]))
            t += cfg.push_spacing + float(rng.uniform(-cfg.push_jitter, cfg.push_jitter))
    return {"parameters": realized, "push_events": events}
