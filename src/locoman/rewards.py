"""The rewards `run` records: tracking, gait and frequency terms over
contact bookkeeping, and the two-stage weight table.

Every term takes a whole timeline at once, one entry per tick, and returns
one column. Each column holds the bits that evaluating the term tick by tick
gives (`tests/oracles.py` keeps that per-tick form, and a test compares the
two bit for bit). Two float rules keep that so: a square that the per-tick
form takes as Python's `x ** 2` (C `pow`, which is not always `x * x`) stays
one, and a row's inner product goes through `geometry.row_dot`, which gives
`np.dot`'s bits. The stage-dependent weight table is applied only in
total_reward. Leg order: FL, FR, RL, RR. The paper's other rows of the table
(end-effector and regularization terms), PD torque and observation assembly
are in `training`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .geometry import row_dot

LEGS = ("FL", "FR", "RL", "RR")
SYNC_PAIRS = (("FL", "RR"), ("FR", "RL"))
ASYNC_PAIRS = (("FL", "FR"), ("FL", "RL"), ("FR", "RR"), ("RL", "RR"))

GAIT_CLIP = 0.04  # squared-seconds cap on each gait error factor


# ---------------------------------------------------------------------------
# contact bookkeeping
# ---------------------------------------------------------------------------

def _no_ticks() -> np.ndarray:
    return np.zeros((0, len(LEGS)))


@dataclass
class ContactTimeline:
    """Contact bookkeeping of a whole timeline, one column per leg in LEGS
    order: the duration of the leg's current or last air stint and contact
    stint after each tick, and per leg the (tick, time) of each contact
    onset. It starts empty and `update` fills it once."""

    air_time: np.ndarray = field(default_factory=_no_ticks)
    contact_time: np.ndarray = field(default_factory=_no_ticks)
    onsets: tuple[list[tuple[int, float]], ...] = field(
        default_factory=lambda: tuple([] for _ in LEGS))

    def __len__(self) -> int:
        return len(self.air_time)

    def update(self, contacts, dt, t) -> None:
        """Fill the empty timeline: `contacts` holds one row of flags per tick,
        `t` each tick's time and `dt` its duration (one float, or one per
        tick). A stint's duration is the running sum of its ticks' dt, added
        left to right, as adding each tick's dt in turn does. Before its first
        stint of a kind, a leg's duration of that kind is 0.0."""
        if len(self):
            raise UsageError("ContactTimeline.update fills an empty timeline; "
                             "this one already holds ticks")
        flags = np.asarray(contacts, dtype=bool).reshape(-1, len(LEGS))
        n, times = len(flags), np.asarray(t, dtype=float).tolist()
        if len(times) != n:
            raise UsageError(f"{n} rows of contact flags but {len(times)} times")
        dt, ticks = np.broadcast_to(np.asarray(dt, dtype=float), (n,)), np.arange(n)
        self.air_time, self.contact_time = np.empty((n, len(LEGS))), np.empty((n, len(LEGS)))
        for j, down in enumerate(flags.T):
            before = np.concatenate(([False], down[:-1]))
            self.onsets[j].extend((k, times[k]) for k in
                                  np.flatnonzero(down & ~before).tolist())
            edges = [0, *(np.flatnonzero(down[1:] != down[:-1]) + 1).tolist(), n]
            run = np.empty(n)  # run[k]: the sum of tick k's stint so far
            for s, e in zip(edges, edges[1:]):
                run[s:e] = np.add.accumulate(dt[s:e])
            # between its stints a duration holds its last stint's sum
            last_down = np.maximum.accumulate(np.where(down, ticks, -1))
            last_up = np.maximum.accumulate(np.where(down, -1, ticks))
            self.contact_time[:, j] = np.where(last_down >= 0, run[last_down], 0.0)
            self.air_time[:, j] = np.where(last_up >= 0, run[last_up], 0.0)


# ---------------------------------------------------------------------------
# tracking rewards
# ---------------------------------------------------------------------------

def r_track_xy(cmd_xy: np.ndarray, actual_xy: np.ndarray,
               gamma_xy: float = 0.25) -> np.ndarray:
    """exp(-|cmd - actual|^2 / gamma) of each row of two (n, 2) arrays."""
    err = np.asarray(cmd_xy, dtype=float) - actual_xy
    return np.exp(-row_dot(err, err) / gamma_xy)


def r_track_yaw(cmd_w: np.ndarray, actual_w: np.ndarray,
                gamma_w: float = 0.25) -> np.ndarray:
    """exp(-(cmd - actual)^2 / gamma) of each entry; the square is Python's
    `**`, as in the per-tick form."""
    err = (np.asarray(cmd_w, dtype=float) - actual_w).tolist()
    return np.exp(-np.array([e ** 2 for e in err], dtype=float) / gamma_w)


# ---------------------------------------------------------------------------
# gait & frequency rewards
# ---------------------------------------------------------------------------

def _clip_sq(x: np.ndarray) -> np.ndarray:
    return np.minimum(x * x, GAIT_CLIP)  # x * x is never below 0


def _stints(timeline: ContactTimeline, leg: str) -> tuple[np.ndarray, np.ndarray]:
    j = LEGS.index(leg)
    return timeline.air_time[:, j], timeline.contact_time[:, j]


def sync_term(timeline: ContactTimeline, a: str, b: str) -> np.ndarray:
    """Synchrony between legs `a` and `b`: in [exp(-0.08), 1]."""
    (air_a, contact_a), (air_b, contact_b) = _stints(timeline, a), _stints(timeline, b)
    return np.exp(-(_clip_sq(air_a - air_b) + _clip_sq(contact_a - contact_b)))


def async_term(timeline: ContactTimeline, a: str, b: str) -> np.ndarray:
    """Asynchrony (crossed air/contact comparison): in [exp(-0.08), 1]."""
    (air_a, contact_a), (air_b, contact_b) = _stints(timeline, a), _stints(timeline, b)
    return np.exp(-(_clip_sq(air_a - contact_b) + _clip_sq(contact_a - air_b)))


def r_gait(timeline: ContactTimeline) -> np.ndarray:
    """Product of diagonal synchrony terms and lateral/longitudinal asynchrony
    terms; exactly 1 for an ideal trot."""
    value = np.ones(len(timeline))
    for i, j in SYNC_PAIRS:
        value *= sync_term(timeline, i, j)
    for k, l in ASYNC_PAIRS:
        value *= async_term(timeline, k, l)
    return value


def r_freq(timeline: ContactTimeline, f_target: float = 2.0) -> np.ndarray:
    """Product over legs of exp(-0.5 * (f - f_target)^2), f the inverse of the
    interval between the leg's last two contact onsets; a leg before its
    second onset, or after a non-positive interval, contributes 1 (no
    evidence, no penalty). A leg's factor changes only at its onsets, so it
    is computed there, one float each."""
    value = np.ones(len(timeline))
    for onsets in timeline.onsets:
        factor = np.ones(len(timeline))
        for (_, t0), (k, t1) in zip(onsets, onsets[1:]):
            interval = t1 - t0
            factor[k:] = (1.0 if interval <= 0.0
                          else float(np.exp(-0.5 * (1.0 / interval - f_target) ** 2)))
        value *= factor
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


def total_reward(stage: int, terms: dict[str, float | np.ndarray],
                 weights: RewardWeights | None = None) -> float | np.ndarray:
    """Weighted sum of term values under the given stage's column; a term's
    value is one float or one column, and the sum is the same shape."""
    weights = weights or RewardWeights()
    total = 0.0
    for name, value in terms.items():
        total += weights.weight(name, stage) * value
    return total
