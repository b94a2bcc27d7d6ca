"""Reward library for the two-stage whole-body policy, plus contact
bookkeeping, observation assembly, and PD torque conversion.

All reward terms are pure functions; the stage-dependent weight table is
applied only in total_reward. Joint layout is fixed: 12 leg joints
followed by 6 arm joints. Leg order: FL, FR, RL, RR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .geometry import dot, norm, wrap_angle

LEGS = ("FL", "FR", "RL", "RR")
SYNC_PAIRS = (("FL", "RR"), ("FR", "RL"))
ASYNC_PAIRS = (("FL", "FR"), ("FL", "RL"), ("FR", "RR"), ("RL", "RR"))

NUM_JOINTS = 18
NUM_LEG_JOINTS = 12
NUM_ARM_JOINTS = 6

GAIT_CLIP = 0.04  # squared-seconds cap on each gait error factor


# ---------------------------------------------------------------------------
# contact bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class LegTimeline:
    """Per-leg air/contact stint durations and the last two contact onsets."""

    in_contact: bool = False
    air_time: float = 0.0
    contact_time: float = 0.0
    onsets: tuple[float, ...] = ()

    def update(self, in_contact: bool, dt: float, t: float) -> None:
        if in_contact and not self.in_contact:
            # touchdown: new contact stint begins
            self.contact_time = 0.0
            self.onsets = (self.onsets + (t,))[-2:]
        elif not in_contact and self.in_contact:
            self.air_time = 0.0
        if in_contact:
            self.contact_time += dt
        else:
            self.air_time += dt
        self.in_contact = in_contact


@dataclass
class ContactTimeline:
    legs: dict[str, LegTimeline] = field(
        default_factory=lambda: {leg: LegTimeline() for leg in LEGS})

    def update(self, contacts: tuple[bool, bool, bool, bool], dt: float, t: float) -> None:
        """`contacts` holds one flag per leg, in LEGS order."""
        for leg, in_contact in zip(LEGS, contacts):
            self.legs[leg].update(in_contact, dt, t)


def leg_frequency(leg: LegTimeline) -> float | None:
    """Inverse of the interval between the last two contact onsets; None until
    two onsets exist."""
    if len(leg.onsets) < 2:
        return None
    interval = leg.onsets[1] - leg.onsets[0]
    if interval <= 0.0:
        return None
    return 1.0 / interval


# ---------------------------------------------------------------------------
# tracking rewards
# ---------------------------------------------------------------------------

def r_track_xy(cmd_xy: np.ndarray, actual_xy: np.ndarray, gamma_xy: float = 0.25) -> float:
    err = np.array((cmd_xy[0] - actual_xy[0], cmd_xy[1] - actual_xy[1]), dtype=float)
    return float(np.exp(-dot(err, err) / gamma_xy))


def r_track_yaw(cmd_w: float, actual_w: float, gamma_w: float = 0.25) -> float:
    return float(np.exp(-((cmd_w - actual_w) ** 2) / gamma_w))


def r_ee_pos(target: np.ndarray, actual: np.ndarray) -> float:
    """Euclidean position tracking error (penalized via negative weight)."""
    return norm(np.asarray(target, dtype=float) - np.asarray(actual, dtype=float))


def r_ee_ori(target_euler: np.ndarray, actual_euler: np.ndarray) -> float:
    """Norm of per-axis wrapped Euler differences."""
    diff = wrap_angle(np.asarray(target_euler, dtype=float)
                      - np.asarray(actual_euler, dtype=float))
    return norm(diff)


# ---------------------------------------------------------------------------
# gait & frequency rewards
# ---------------------------------------------------------------------------

def _clip_sq(x: float) -> float:
    return min(max(x * x, 0.0), GAIT_CLIP)


def sync_term(a: LegTimeline, b: LegTimeline) -> float:
    """Synchrony between two legs: in [exp(-0.08), 1]."""
    return float(np.exp(-(_clip_sq(a.air_time - b.air_time)
                          + _clip_sq(a.contact_time - b.contact_time))))


def async_term(a: LegTimeline, b: LegTimeline) -> float:
    """Asynchrony (crossed air/contact comparison): in [exp(-0.08), 1]."""
    return float(np.exp(-(_clip_sq(a.air_time - b.contact_time)
                          + _clip_sq(a.contact_time - b.air_time))))


def r_gait(timeline: ContactTimeline) -> float:
    """Product of diagonal synchrony terms and lateral/longitudinal asynchrony
    terms; exactly 1 for an ideal trot."""
    value = 1.0
    for i, j in SYNC_PAIRS:
        value *= sync_term(timeline.legs[i], timeline.legs[j])
    for k, l in ASYNC_PAIRS:
        value *= async_term(timeline.legs[k], timeline.legs[l])
    return value


def r_freq(timeline: ContactTimeline, f_target: float = 2.0) -> float:
    """Product over legs of exp(-0.5 * (f - f_target)^2); legs without two
    recorded onsets contribute 1 (no evidence, no penalty)."""
    value = 1.0
    for leg in LEGS:
        f = leg_frequency(timeline.legs[leg])
        if f is None:
            continue
        value *= float(np.exp(-0.5 * (f - f_target) ** 2))
    return value


# ---------------------------------------------------------------------------
# regularization terms
# ---------------------------------------------------------------------------

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
# weight table & total
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardWeights:
    """Stage-dependent weights, (stage 1, stage 2) per term."""

    track_xy: tuple[float, float] = (2.75, 2.75)
    track_yaw: tuple[float, float] = (1.50, 1.50)
    ee_pos: tuple[float, float] = (0.0, -1.20)
    ee_ori: tuple[float, float] = (0.0, -1.50)
    gait: tuple[float, float] = (0.75, 0.75)
    freq: tuple[float, float] = (12.5, 12.5)
    torque_base: tuple[float, float] = (-2.0e-4, -2.0e-4)
    acc_base: tuple[float, float] = (-2.5e-7, -2.0e-7)
    power_base: tuple[float, float] = (-2.0e-5, -2.0e-5)
    torque_arm: tuple[float, float] = (0.0, -4.0e-4)
    acc_arm: tuple[float, float] = (0.0, -2.5e-6)
    power_arm: tuple[float, float] = (0.0, -2.0e-4)
    smooth: tuple[float, float] = (-0.02, -0.02)

    def weight(self, term: str, stage: int) -> float:
        if stage not in (1, 2):
            raise UsageError(f"stage must be 1 or 2, got {stage}")
        return getattr(self, term)[stage - 1]


def total_reward(stage: int, terms: dict[str, float],
                 weights: RewardWeights | None = None) -> float:
    """Weighted sum of term values under the given stage's column."""
    weights = weights or RewardWeights()
    total = 0.0
    for name, value in terms.items():
        total += weights.weight(name, stage) * value
    return total


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
