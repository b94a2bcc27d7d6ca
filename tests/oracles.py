"""Reference implementations that only tests and acceptance criteria call.

Each is the plain, one-value-at-a-time form of a rule the library applies
another way, kept here so the library's faster form can be checked against
it bit for bit or to a stated tolerance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from locoman import fusion
from locoman.errors import ActionFailed, UsageError
from locoman.fusion import EPSILON, TAU_GEO, TAU_SEM
from locoman.geometry import (Pose, dot, norm, quat_mul, quat_normalize, quat_to_matrix,
                              unit, vec3)
from locoman.harness import (BASE_FOOTPRINT_RADIUS, BASE_STAND_HEIGHT, NAV_GOAL_TOL, STOP,
                             LocomotionCommand, _wrap)
from locoman.navgrid import footprint_clear
from locoman.planning import ConditionKind, _object_position
from locoman.planning import condition_holds as library_condition_holds
from locoman.rewards import ASYNC_PAIRS, GAIT_CLIP, LEGS, SYNC_PAIRS
from locoman.training import SphericalTarget, wrap_angle
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


def semantic_similarity(f_i: np.ndarray, f_j: np.ndarray) -> float:
    """Cosine similarity of two descriptors, in [-1, 1]."""
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    if f_i.shape != f_j.shape:
        raise UsageError(f"descriptor dimension mismatch: {f_i.shape} vs {f_j.shape}")
    ni, nj = norm(f_i), norm(f_j)
    # NaN fails the comparisons too: a NaN cosine would fail the gate silently
    if not (0.0 < ni < math.inf and 0.0 < nj < math.inf):
        raise UsageError("descriptors must be nonzero and finite")
    return dot(f_i, f_j) / (ni * nj)


def should_merge(det, node) -> bool:
    """True iff both merge criteria strictly exceed their thresholds.

    The incoming detection is the query side of the geometric criterion so a
    partial new view of a large known object still merges. The geometric
    share is `fusion.geometric_similarity`, whose neighbour count
    `fusion._near_count` is looked up on `fusion` at each call, so a test
    that wraps the count sees this one's checks too.
    """
    sem = semantic_similarity(det.descriptor, node.descriptor)
    if sem <= TAU_SEM:
        return False
    return fusion.geometric_similarity(det.points, node.points, EPSILON) > TAU_GEO


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


# ---------------------------------------------------------------------------
# the world step with the base held as a Pose and every quaternion built and
# read on numpy, the form `harness.step` computes on floats
# ---------------------------------------------------------------------------

Z_AXIS = np.array([0.0, 0.0, 1.0])


def quat_from_axis_angle_array(axis, angle: float) -> np.ndarray:
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * unit(np.asarray(axis, dtype=float))))


def quat_slerp_array(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    d = dot(a, b)
    if d < 0.0:
        b = -b
        d = -d
    if d > 1.0 - 1e-12:
        return quat_normalize(a + t * (b - a))
    theta = np.arccos(min(d, 1.0))
    return (np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)


@dataclass
class PoseWorld:
    """`harness.WorldState` with the base held as a Pose: `base_xy` and
    `base_yaw` are read from it."""

    t: float
    base_pose: Pose
    base_xy: tuple
    base_yaw: float
    base_vel: tuple
    ee_pose: Pose
    attachments: dict
    object_positions: dict
    contents: dict
    joint_values: dict


def _base_at(x, y, yaw, z) -> tuple[Pose, float]:
    """The base pose at (x, y, z) turned by `yaw` about +z, and the yaw read
    back from it through the full rotation matrix."""
    pose = Pose(vec3(x, y, z), quat_from_axis_angle_array(Z_AXIS, yaw))
    return pose, euler_from_quat(pose.orientation)[2]


def pose_make_world(scenario) -> PoseWorld:
    x, y = scenario.robot_start.position[:2]
    base, yaw = _base_at(x, y, scenario.robot_start.yaw,
                         scenario.terrain_height + BASE_STAND_HEIGHT)
    ee = Pose(base.transform(vec3(0.3, 0.0, 0.2)), base.orientation)
    return PoseWorld(0.0, base, (float(x), float(y)), yaw, (0.0, 0.0, 0.0), ee, {},
                     {obj.id: obj.position.copy() for obj in scenario.objects}, {},
                     {obj.id: obj.joint.value for obj in scenario.objects
                      if obj.joint is not None})


def pose_step(world: PoseWorld, base_cmd, ee_cmd, dt, tracking, rng, scenario,
              grid=None) -> None:
    """`harness.step` on a PoseWorld: a new base Pose every tick that moves
    the base, and each rider placed by its carrier's `Pose.transform`."""
    cx, cy, cw = float(base_cmd.x), float(base_cmd.y), float(base_cmd.w)
    if tracking.tau_base <= 0.0:
        vx, vy, w = cx, cy, cw
    else:
        alpha = 1.0 - float(np.exp(-dt / tracking.tau_base))
        vx, vy, w = world.base_vel
        vx, vy, w = vx + alpha * (cx - vx), vy + alpha * (cy - vy), w + alpha * (cw - w)
    world.base_vel = (vx, vy, w)

    (x, y), yaw = world.base_xy, world.base_yaw
    c, s = np.cos(yaw), np.sin(yaw)
    nx = x + float(vx * c - vy * s) * dt
    ny = y + float(vx * s + vy * c) * dt
    if grid is not None and not footprint_clear(grid, nx, ny, BASE_FOOTPRINT_RADIUS):
        world.base_vel = (0.0, 0.0, 0.0)
    else:
        world.base_pose, world.base_yaw = _base_at(
            nx, ny, float(wrap_angle(yaw + w * dt)), scenario.terrain_height + BASE_STAND_HEIGHT)
        world.base_xy = (nx, ny)

    if ee_cmd is not None:
        decay = float(np.exp(-tracking.ee_rate * dt))
        pos = ee_cmd.position + (world.ee_pose.position - ee_cmd.position) * decay
        ori = quat_slerp_array(world.ee_pose.orientation, ee_cmd.orientation, 1.0 - decay)
        if tracking.noise_pos > 0.0:
            pos = pos + rng.normal(0.0, tracking.noise_pos, size=3)
        if tracking.noise_ori > 0.0:
            axis = unit(rng.normal(size=3))
            angle = float(rng.normal(0.0, tracking.noise_ori))
            ori = quat_normalize(quat_mul(quat_from_axis_angle_array(axis, angle), ori))
        world.ee_pose = Pose(pos, ori)

    for oid, (carrier, rel) in world.attachments.items():
        anchor = world.ee_pose if carrier == "ee" else world.base_pose
        world.object_positions[oid] = anchor.transform(rel)
    for oid, (container, offset) in world.contents.items():
        world.object_positions[oid] = world.object_positions[container] + offset
    world.t += dt


def follow_path(runner, path_points, goal_xy, deadline) -> None:
    """`harness.EpisodeRunner._follow_path` with every distance taken as
    `norm` of a 2-element array: the goal distance once a tick, compared with
    the tolerance and fed to the speed cap, and each lookahead distance."""
    (gx, gy), targets = goal_xy.tolist(), [p.tolist() for p in path_points]
    idx, last = 0, len(targets) - 1
    while runner.world.t < deadline:
        x, y = runner.world.base_xy
        dist = norm(np.array((x - gx, y - gy)))
        if dist <= NAV_GOAL_TOL:
            runner.tick(STOP, None)
            return
        tx, ty = targets[idx]
        while idx < last and norm(np.array((tx - x, ty - y))) < 0.3:
            idx += 1
            tx, ty = targets[idx]
        err = _wrap(float(np.arctan2(ty - y, tx - x)) - runner.world.base_yaw)
        w_cmd = min(max(2.0 * err, -1.0), 1.0)
        vx = min(0.8, dist / runner.dt) if abs(err) < 0.5 else 0.0
        runner.tick(LocomotionCommand(vx, 0.0, w_cmd), None)
    raise ActionFailed("navigation timeout")


def condition_holds(m, world) -> bool:
    """`planning.condition_holds` with a near kind's distance taken as `norm`
    of a 2-element array; every other kind is the library's (bound at import,
    so a test may patch this function in)."""
    if m.kind not in (ConditionKind.ROBOT_NEAR, ConditionKind.OBJECT_NEAR):
        return library_condition_holds(m, world)
    x, y = (world.base_xy if m.kind is ConditionKind.ROBOT_NEAR
            else _object_position(world, m.object)[:2].tolist())
    px, py = np.asarray(m.point[:2]).tolist()
    return norm(np.array((x - px, y - py))) <= m.threshold
