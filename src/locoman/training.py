"""The paper's whole-body policy training setup, transcribed but not run.

A kinematic harness does not train a policy, so `locoman run` reaches
nothing here, and no config file sets any of it. It is kept and tested,
and its values are pinned to the tables it transcribes
(`tests/test_config.py`, acceptance criterion 9). `tests/test_surface.py`
keeps the split a rule: no module of the run path (`src/locoman/` outside
this file, and `benchmarks/`) names a definition made here, and every
definition there is reached from the run path. A name moves out of this
module when `run` starts to use it.

- Reward weight table rows that `run` does not record: the stage-2
  end-effector tracking terms (`r_ee_pos`, `r_ee_ori`) and the
  regularization terms of base and arm (`r_torque`, `r_acc`, `r_power`)
  and of the action (`r_smooth`). `locoman rewards` takes them as trace
  columns; their weights stay in `rewards.RewardWeights`.
- Policy I/O: the PD gains table as `PdGains`' defaults (kp, kd per leg and
  arm joint) and the torque law it parameterizes (`pd_torque`); the action
  as an offset from the default joint configuration (`apply_action`); the
  observation layout (`assemble_observation`) with its terrain heightmap
  block (`HeightmapSpec`). Joints are 12 leg joints followed by 6 arm
  joints; leg order FL, FR, RL, RR.
- Command sampling: the command-range table `COMMAND_RANGES` (`train`,
  `eval`, `roboduet`, each a `CommandRanges`), base velocity commands
  (`sample_locomotion_command`) and 6-D end-effector targets
  (`sample_ee_target`) drawn from it, from a `harness.make_rng` stream
  (acceptance criterion 5). End-effector targets are drawn
  terrain-invariantly: the target is formed in a yaw-only world-aligned
  frame at a nominal arm-base height, so its world-frame z never depends on
  base pitch/roll or terrain offset, and only then expressed in the
  (possibly pitched) base frame. Orientation commands are Euler angles
  (alpha, beta, gamma) (`EulerAngles`, `quat_from_euler`), positions
  spherical (`SphericalTarget`, `spherical_to_cartesian`).
- Domain randomization: the table as `RandomizationConfig`'s defaults and
  its episode realization with a push-event schedule
  (`sample_episode_randomization`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import UsageError
from .geometry import (Pose, dot, norm, quat_from_axis_angle, quat_from_yaw,
                       quat_mul)
from .harness import LocomotionCommand

NUM_JOINTS = 18
NUM_LEG_JOINTS = 12
NUM_ARM_JOINTS = 6

PI = float(np.pi)


# ---------------------------------------------------------------------------
# angles and end-effector targets
# ---------------------------------------------------------------------------

def wrap_angle(a):
    """Normalize angle(s) to (-pi, pi]; -pi maps to +pi."""
    return np.mod(np.asarray(a, dtype=float) - np.pi, -2.0 * np.pi) + np.pi


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Extrinsic X-Y-Z Euler angles to quaternion (q = qz * qy * qx)."""
    qx = quat_from_axis_angle(np.array([1.0, 0, 0]), roll)
    qy = quat_from_axis_angle(np.array([0, 1.0, 0]), pitch)
    qz = quat_from_yaw(yaw)
    return quat_mul(qz, quat_mul(qy, qx))


@dataclass(frozen=True)
class SphericalTarget:
    """End-effector position target: radius, pitch, yaw (radians)."""

    radius: float
    pitch: float
    yaw: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


def spherical_to_cartesian(s: SphericalTarget) -> np.ndarray:
    """Radius/pitch/yaw to xyz: pitch positive raises +z, yaw rotates about z."""
    cp = np.cos(s.pitch)
    return s.radius * np.array([cp * np.cos(s.yaw), cp * np.sin(s.yaw), np.sin(s.pitch)])


@dataclass(frozen=True)
class EulerAngles:
    """Extrinsic X-Y-Z orientation target (radians)."""

    roll: float
    pitch: float
    yaw: float


# ---------------------------------------------------------------------------
# stage-2 tracking and regularization rewards
# ---------------------------------------------------------------------------

def r_ee_pos(target: np.ndarray, actual: np.ndarray) -> float:
    """Euclidean position tracking error (penalized via negative weight)."""
    return norm(np.asarray(target, dtype=float) - np.asarray(actual, dtype=float))


def r_ee_ori(target_euler: np.ndarray, actual_euler: np.ndarray) -> float:
    """Norm of per-axis wrapped Euler differences."""
    diff = wrap_angle(np.asarray(target_euler, dtype=float)
                      - np.asarray(actual_euler, dtype=float))
    return norm(diff)


def _part_slice(part: str) -> slice:
    if part == "base":
        return slice(0, NUM_LEG_JOINTS)
    if part == "arm":
        return slice(NUM_LEG_JOINTS, NUM_JOINTS)
    raise UsageError(f"part must be 'base' or 'arm', got {part!r}")


def r_torque(tau: np.ndarray, part: str) -> float:
    v = np.asarray(tau, dtype=float)[_part_slice(part)]
    return dot(v, v)


def r_acc(qddot: np.ndarray, part: str) -> float:
    v = np.asarray(qddot, dtype=float)[_part_slice(part)]
    return dot(v, v)


def r_power(tau: np.ndarray, qdot: np.ndarray, part: str) -> float:
    """Elementwise mechanical power magnitude: sum |tau_i| * |qdot_i|."""
    s = _part_slice(part)
    return float(np.sum(np.abs(np.asarray(tau, dtype=float)[s])
                        * np.abs(np.asarray(qdot, dtype=float)[s])))


def r_smooth(a_t: np.ndarray, a_prev: np.ndarray) -> float:
    return norm(np.asarray(a_t, dtype=float) - np.asarray(a_prev, dtype=float))


# ---------------------------------------------------------------------------
# policy I/O
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdGains:
    kp_leg: float = 20.0
    kd_leg: float = 0.5
    kp_arm: float = 25.0
    kd_arm: float = 0.5

    def kp(self) -> np.ndarray:
        return np.concatenate([np.full(NUM_LEG_JOINTS, self.kp_leg),
                               np.full(NUM_ARM_JOINTS, self.kp_arm)])

    def kd(self) -> np.ndarray:
        return np.concatenate([np.full(NUM_LEG_JOINTS, self.kd_leg),
                               np.full(NUM_ARM_JOINTS, self.kd_arm)])


def pd_torque(q_target: np.ndarray, q: np.ndarray, qdot: np.ndarray,
              kp: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """tau = Kp (q_target - q) - Kd qdot, elementwise."""
    q_target = np.asarray(q_target, dtype=float)
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    return np.asarray(kp, dtype=float) * (q_target - q) - np.asarray(kd, dtype=float) * qdot


def apply_action(a_t: np.ndarray, q_default: np.ndarray) -> np.ndarray:
    """Action is an offset to the default joint configuration."""
    a_t = np.asarray(a_t, dtype=float)
    q_default = np.asarray(q_default, dtype=float)
    if a_t.shape != (NUM_JOINTS,) or q_default.shape != (NUM_JOINTS,):
        raise UsageError(f"expected length-{NUM_JOINTS} action and default")
    return q_default + a_t


def assemble_observation(cmd: np.ndarray, ee_target: np.ndarray,
                         joint_state: np.ndarray, gravity: np.ndarray,
                         heightmap: np.ndarray, a_prev: np.ndarray) -> np.ndarray:
    """Frozen layout: command(3) | ee target(6) | joints(36) | gravity(3) |
    heightmap(H*W) | previous action(18)."""
    parts = [np.asarray(cmd, dtype=float).ravel(),
             np.asarray(ee_target, dtype=float).ravel(),
             np.asarray(joint_state, dtype=float).ravel(),
             np.asarray(gravity, dtype=float).ravel(),
             np.asarray(heightmap, dtype=float).ravel(),
             np.asarray(a_prev, dtype=float).ravel()]
    sizes = [3, 6, 2 * NUM_JOINTS, 3, parts[4].size, NUM_JOINTS]
    for p, want in zip(parts, sizes):
        if p.size != want:
            raise UsageError(f"observation block size {p.size} != expected {want}")
    return np.concatenate(parts)


@dataclass(frozen=True)
class HeightmapSpec:
    """Base-centered terrain sample grid; values are height minus base height."""

    rows: int = 11
    cols: int = 11
    spacing: float = 0.1

    def sample(self, base_xy: np.ndarray, base_z: float, height_at) -> np.ndarray:
        half_r = (self.rows - 1) / 2.0
        half_c = (self.cols - 1) / 2.0
        out = np.empty((self.rows, self.cols))
        for i in range(self.rows):
            for j in range(self.cols):
                x = base_xy[0] + (j - half_c) * self.spacing
                y = base_xy[1] + (i - half_r) * self.spacing
                out[i, j] = height_at(x, y) - base_z
        return out


# ---------------------------------------------------------------------------
# command sampling
# ---------------------------------------------------------------------------

def _check_bounds(name: str, bounds: tuple[float, float], what: str = "") -> None:
    """Raise `ValueError(name, message)` unless `bounds` is a finite
    [lo, hi] with lo <= hi; `what` prefixes the message."""
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(name, f"{what}bounds must be finite, got {[lo, hi]}")
    if lo > hi:
        raise ValueError(name, f"{what}lo {lo} > hi {hi}")


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
            _check_bounds(f.name, getattr(self, f.name))


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
        _check_bounds("range", self.range, f"{self.parameter}: ")
        if self.method not in ("abs", "add", "scale", "interval"):
            raise ValueError("method", f"{self.parameter}: unknown method {self.method!r}")


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

    def __post_init__(self):
        """The push schedule must move forward: each gap, spacing plus a
        jitter draw in [-jitter, jitter), is then > 0."""
        for name in ("push_spacing", "push_jitter", "push_duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(name, f"must be finite, got {value!r}")
        if self.push_jitter < 0:
            raise ValueError("push_jitter", f"must be >= 0, got {self.push_jitter!r}")
        if self.push_spacing <= self.push_jitter:
            raise ValueError("push_spacing", f"must be > push_jitter {self.push_jitter!r}, "
                                             f"got {self.push_spacing!r}")
        if self.push_duration < 0:
            raise ValueError("push_duration", f"must be >= 0, got {self.push_duration!r}")
        pushes = [e.parameter for e in self.entries if e.method == "interval"]
        if len(pushes) > 2:
            raise ValueError("entries", f"at most two interval entries (the world x and y "
                                        f"push velocity), got {pushes}")


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
            events.append(PushEvent(t, cfg.push_duration, velocity))
            t += cfg.push_spacing + float(rng.uniform(-cfg.push_jitter, cfg.push_jitter))
    return {"parameters": realized, "push_events": events}
