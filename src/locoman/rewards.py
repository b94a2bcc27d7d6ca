"""The rewards `run` records: tracking, gait and frequency terms over
contact bookkeeping, and the two-stage weight table.

All reward terms are pure functions; the stage-dependent weight table is
applied only in total_reward. Leg order: FL, FR, RL, RR. The paper's other
rows of the table (end-effector and regularization terms), PD torque and
observation assembly are in `training`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .geometry import dot

LEGS = ("FL", "FR", "RL", "RR")
SYNC_PAIRS = (("FL", "RR"), ("FR", "RL"))
ASYNC_PAIRS = (("FL", "FR"), ("FL", "RL"), ("FR", "RR"), ("RL", "RR"))

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
