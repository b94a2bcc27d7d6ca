"""Reference implementations that only tests and acceptance criteria call.

Each is the plain, one-value-at-a-time form of a rule the library applies
another way, kept here so the library's faster form can be checked against
it bit for bit or to a stated tolerance.
"""

from dataclasses import dataclass, field

import numpy as np

from locoman.errors import UsageError
from locoman.fusion import semantic_similarity, should_merge
from locoman.geometry import dot, quat_to_matrix
from locoman.rewards import ASYNC_PAIRS, GAIT_CLIP, LEGS, SYNC_PAIRS
from locoman.training import SphericalTarget
from locoman.navgrid import SQRT2

_UNIT_TOL = 1e-9


def euler_from_quat(q: np.ndarray) -> tuple[float, float, float]:
    """Inverse of quat_from_euler away from gimbal lock (|pitch| = pi/2)."""
    R = quat_to_matrix(q)
    sp = -R[2, 0]
    sp = float(np.clip(sp, -1.0, 1.0))
    pitch = np.arcsin(sp)
    if abs(sp) < 1.0 - 1e-9:
        roll = np.arctan2(R[2, 1], R[2, 2])
        yaw = np.arctan2(R[1, 0], R[0, 0])
    else:
        # gimbal lock: only roll +/- yaw observable, pin roll = 0
        roll = 0.0
        yaw = np.arctan2(-R[0, 1], R[1, 1])
    return float(roll), float(pitch), float(yaw)


def is_rotation_matrix(R: np.ndarray, tol: float = _UNIT_TOL) -> bool:
    return (np.allclose(R.T @ R, np.eye(3), atol=tol)
            and abs(np.linalg.det(R) - 1.0) <= tol)


def cartesian_to_spherical(v: np.ndarray) -> SphericalTarget:
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return SphericalTarget(0.0, 0.0, 0.0)
    pitch = float(np.arcsin(np.clip(v[2] / r, -1.0, 1.0)))
    yaw = float(np.arctan2(v[1], v[0]))
    return SphericalTarget(r, pitch, yaw)


def disk_overlaps_bbox(x: float, y: float, radius: float, bbox_min, bbox_max) -> bool:
    """2D disk vs axis-aligned box overlap."""
    nx = min(max(x, bbox_min[0]), bbox_max[0])
    ny = min(max(y, bbox_min[1]), bbox_max[1])
    return np.hypot(nx - x, ny - y) < radius


def ingest_detection_loop(graph, det) -> int:
    """`InstanceGraph.ingest_detection` one node at a time: `should_merge`
    over every node, then the highest `semantic_similarity`, ties to the
    lowest id. Fuses into (or adds to) `graph` through its own node
    updates, so two graphs fed the same stream hold the same bytes."""
    if det.descriptor.shape != (graph.d,):
        raise UsageError(f"descriptor dimension {det.descriptor.shape[0]} != {graph.d}")
    candidates = [n for n in graph.nodes.values() if should_merge(det, n)]
    if not candidates:
        return graph._add_node(det)
    best = max(candidates,
               key=lambda n: (semantic_similarity(det.descriptor, n.descriptor), -n.id))
    graph._fuse(best, det)
    return best.id


def path_cost(path: list[tuple[int, int]]) -> float:
    cost = 0.0
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        cost += SQRT2 if (x0 != x1 and y0 != y1) else 1.0
    return cost


# ---------------------------------------------------------------------------
# stage-1 rewards one tick at a time, the form `locoman.rewards` computes a
# whole timeline at once
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
class TickTimeline:
    legs: dict[str, LegTimeline] = field(
        default_factory=lambda: {leg: LegTimeline() for leg in LEGS})

    def update(self, contacts, dt: float, t: float) -> None:
        """`contacts` holds one flag per leg, in LEGS order."""
        for leg, in_contact in zip(LEGS, contacts):
            self.legs[leg].update(bool(in_contact), dt, t)


def leg_frequency(leg: LegTimeline) -> float | None:
    if len(leg.onsets) < 2:
        return None
    interval = leg.onsets[1] - leg.onsets[0]
    if interval <= 0.0:
        return None
    return 1.0 / interval


def r_track_xy(cmd_xy, actual_xy, gamma_xy: float = 0.25) -> float:
    err = np.array((cmd_xy[0] - actual_xy[0], cmd_xy[1] - actual_xy[1]), dtype=float)
    return float(np.exp(-dot(err, err) / gamma_xy))


def r_track_yaw(cmd_w: float, actual_w: float, gamma_w: float = 0.25) -> float:
    return float(np.exp(-((cmd_w - actual_w) ** 2) / gamma_w))


def _clip_sq(x: float) -> float:
    return min(max(x * x, 0.0), GAIT_CLIP)


def sync_term(a: LegTimeline, b: LegTimeline) -> float:
    return float(np.exp(-(_clip_sq(a.air_time - b.air_time)
                          + _clip_sq(a.contact_time - b.contact_time))))


def async_term(a: LegTimeline, b: LegTimeline) -> float:
    return float(np.exp(-(_clip_sq(a.air_time - b.contact_time)
                          + _clip_sq(a.contact_time - b.air_time))))


def r_gait(timeline: TickTimeline) -> float:
    value = 1.0
    for i, j in SYNC_PAIRS:
        value *= sync_term(timeline.legs[i], timeline.legs[j])
    for k, l in ASYNC_PAIRS:
        value *= async_term(timeline.legs[k], timeline.legs[l])
    return value


def r_freq(timeline: TickTimeline, f_target: float = 2.0) -> float:
    value = 1.0
    for leg in LEGS:
        f = leg_frequency(timeline.legs[leg])
        if f is None:
            continue
        value *= float(np.exp(-0.5 * (f - f_target) ** 2))
    return value


def stage1_rows(cfg, cmd, act, contacts, dts, ts) -> list[tuple[float, ...]]:
    """Per tick: track_xy, track_yaw, gait, freq and the stage-1 total, each
    tick's terms computed from the timeline after that tick."""
    timeline, rows = TickTimeline(), []
    for c, a, flags, dt, t in zip(cmd, act, contacts, dts, ts):
        c, a = [float(v) for v in c], [float(v) for v in a]
        timeline.update(flags, float(dt), float(t))
        terms = {"track_xy": r_track_xy(c[:2], a[:2], cfg.gamma_xy),
                 "track_yaw": r_track_yaw(c[2], a[2], cfg.gamma_w),
                 "gait": r_gait(timeline),
                 "freq": r_freq(timeline, cfg.f_target)}
        total = 0.0
        for name, value in terms.items():
            total += cfg.reward_weights.weight(name, 1) * value
        rows.append((*terms.values(), total))
    return rows
