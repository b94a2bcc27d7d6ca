"""Deterministic kinematic 2.5D simulator.

Runs scenario bundles (`locoman.scenario`), replaces the trained policy with
a configurable tracking model (first-order base lag, exponential
end-effector convergence, optional noise), executes atomic actions through
primitive controllers, and emits per-episode traces and metric reports.
Everything downstream of (scenario, seed, dt, fixtures, config) is
bit-reproducible on one numpy and BLAS code path (the README says which).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .config import Config, TrackingConfig, to_dict
from .errors import ActionFailed, LocomanError, OracleFailure, UsageError, ValidationError
from .fusion import Detection, InstanceGraph
from .geometry import (Pose, mat_vec, norm, norm_within, quat_from_axis_angle,
                       quat_geodesic_distance, quat_mul, quat_normalize, quat_slerp, quat_yaw,
                       matrix_to_quat, quat_to_matrix, rotate, unit, vec3, yaw_quat)
from .grounding import (CameraModel, DepthImage, GroundingResult, ground_action,
                        solve_orientation)
from .navgrid import (GoalSearchConfig, OccupancyGrid, OCCUPIED, find_goal_pose,
                      footprint_clear, plan_path)
from .planning import (ActionKind, ActionReport, AtomicAction, ScriptedPlanner,
                       decompose, monitor_step, report)
from .rewards import (ContactTimeline, r_freq, r_gait,
                      r_track_xy, r_track_yaw, total_reward)
from .scenario import GroundingFixture, Scenario, SceneObject
from .scenario import load_scenario  # noqa: F401  callers use harness.load_scenario

BASE_STAND_HEIGHT = 0.35
BASE_FOOTPRINT_RADIUS = 0.30
NAV_GOAL_TOL = 0.15
ATTACH_TOLERANCE = 0.05
ORI_TOLERANCE = 0.35
PRE_CONTACT_OFFSET = 0.10  # meters backed off along the approach axis
NAV_TIMEOUT = 60.0
MANIP_TIMEOUT = 20.0
GOAL_SEARCH = GoalSearchConfig(robot_inflation=BASE_FOOTPRINT_RADIUS)
GRID_RESOLUTION = 0.1


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic stream; same seed, same sequence everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def episode_rng(master_seed: int, episode_index: int) -> np.random.Generator:
    """Episode `episode_index`'s stream: the child that `spawn` would give at
    that index, built directly in O(1)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(episode_index,))
    return np.random.Generator(np.random.PCG64(seq))


class LocomotionCommand(NamedTuple):
    x: float
    y: float
    w: float


STOP = LocomotionCommand(0, 0, 0)


# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------

@dataclass
class WorldState:
    """The world one tick at a time. The base is held as floats, its one
    source of truth; `base_pose` is built from them on its first read after
    the base moves."""

    t: float = 0.0
    base_xy: tuple[float, float] = (0.0, 0.0)
    base_z: float = 0.0
    base_quat: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)  # yaw_quat(yaw)
    base_yaw: float = 0.0             # quat_yaw(*base_quat), the yaw read back
    base_vel: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (vx, vy) base frame + (omega,)
    ee_pose: Pose = field(default_factory=Pose)
    attachments: dict = field(default_factory=dict)  # obj id -> (carrier, point in its frame)
    object_positions: dict[str, np.ndarray] = field(default_factory=dict)
    contents: dict = field(default_factory=dict)  # obj id -> (container id, offset)
    joint_values: dict = field(default_factory=dict)
    _pose: Optional[Pose] = field(default=None, init=False, repr=False, compare=False)
    # obj id -> (ee_pose, rel, position) of the last placement of a gripper rider
    _ee_riders: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def base_pose(self) -> Pose:
        if self._pose is None:
            self._pose = Pose(vec3(*self.base_xy, self.base_z), np.array(self.base_quat))
        return self._pose

    def move_base(self, x: float, y: float, yaw: float, z: float) -> None:
        """Put the base at (x, y, z), turned by `yaw` about +z. The yaw is
        read back from the quaternion: the round trip does not always return
        the yaw it was built from."""
        q = yaw_quat(yaw)
        self.base_xy, self.base_z, self.base_quat, self.base_yaw = (x, y), z, q, quat_yaw(*q)
        self._pose = None


def make_world(scenario: Scenario) -> WorldState:
    world = WorldState(object_positions={obj.id: obj.position.copy()
                                         for obj in scenario.objects},
                       joint_values={obj.id: obj.joint.value for obj in scenario.objects
                                     if obj.joint is not None})
    x, y = scenario.robot_start.position[:2].tolist()
    world.move_base(x, y, scenario.robot_start.yaw, scenario.terrain_height + BASE_STAND_HEIGHT)
    base = world.base_pose
    world.ee_pose = Pose(base.transform(vec3(0.3, 0.0, 0.2)), base.orientation)
    return world


def _wrap(a: float) -> float:
    """training.wrap_angle of one float, bit for bit: Python's float `%`
    takes numpy's `np.mod` steps, signed zeros included."""
    return (a - math.pi) % (-2.0 * math.pi) + math.pi


@functools.lru_cache(maxsize=64)
def _exp(x: float) -> float:
    """np.exp of one of `step`'s per-episode exponents, computed once per
    value (`math.exp` differs from it in the last bit)."""
    return float(np.exp(x))


def step(world: WorldState, base_cmd: LocomotionCommand,
         ee_cmd: Optional[Pose], dt: float, tracking: TrackingConfig,
         rng: np.random.Generator, scenario: Scenario,
         grid: Optional[OccupancyGrid] = None) -> None:
    """Advance the world one tick in place."""
    cx, cy, cw = float(base_cmd.x), float(base_cmd.y), float(base_cmd.w)
    if tracking.tau_base <= 0.0:
        vx, vy, w = cx, cy, cw
    else:
        alpha = 1.0 - _exp(-dt / tracking.tau_base)
        vx, vy, w = world.base_vel
        vx, vy, w = vx + alpha * (cx - vx), vy + alpha * (cy - vy), w + alpha * (cw - w)
    world.base_vel = (vx, vy, w)

    x, y = world.base_xy
    yaw = world.base_yaw
    c, s = math.cos(yaw), math.sin(yaw)
    nx = x + (vx * c - vy * s) * dt
    ny = y + (vx * s + vy * c) * dt
    collided = grid is not None and not footprint_clear(grid, nx, ny,
                                                       BASE_FOOTPRINT_RADIUS)
    if collided:
        # terrain contact halts base motion for this tick
        world.base_vel = (0.0, 0.0, 0.0)
    else:
        world.move_base(nx, ny, _wrap(yaw + w * dt),
                        scenario.terrain_height + BASE_STAND_HEIGHT)

    if ee_cmd is not None:
        decay = _exp(-tracking.ee_rate * dt)
        pos = ee_cmd.position + (world.ee_pose.position - ee_cmd.position) * decay
        ori = quat_slerp(world.ee_pose.orientation, ee_cmd.orientation, 1.0 - decay)
        if tracking.noise_pos > 0.0:
            pos = pos + rng.normal(0.0, tracking.noise_pos, size=3)
        if tracking.noise_ori > 0.0:
            axis = unit(rng.normal(size=3))
            angle = float(rng.normal(0.0, tracking.noise_ori))
            ori = quat_normalize(quat_mul(quat_from_axis_angle(axis, angle), ori))
        world.ee_pose = Pose(pos, ori)

    # a rider's point is its carrier's Pose.transform, bit for bit: a gripper
    # rider's is computed again only when the gripper pose or the point (held
    # by the cache, so compared by identity) changed, a base rider's from the
    # base floats
    for oid, (carrier, rel) in world.attachments.items():
        if carrier == "ee":
            placed = world._ee_riders.get(oid)
            if placed is None or placed[0] is not world.ee_pose or placed[1] is not rel:
                placed = world._ee_riders[oid] = (world.ee_pose, rel,
                                                  world.ee_pose.transform(rel))
            world.object_positions[oid] = placed[2]
        else:
            (bx, by), bz = world.base_xy, world.base_z
            rx, ry, rz = rotate(world.base_quat, rel.tolist())
            world.object_positions[oid] = np.array((bx + rx, by + ry, bz + rz))
    for oid, (container, offset) in world.contents.items():
        world.object_positions[oid] = world.object_positions[container] + offset

    world.t += dt


# ---------------------------------------------------------------------------
# scripted oracles
# ---------------------------------------------------------------------------

class ScriptedGrounding:
    """Grounding oracle driven by one precomputed result."""

    def __init__(self, result: Optional[GroundingResult]):
        self.result = result

    def ground(self, image, action_description: str) -> Optional[GroundingResult]:
        return self.result


def _label_descriptor(label: str, dim: int = 16) -> np.ndarray:
    """Deterministic unit descriptor derived from the label text."""
    seed = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return unit(make_rng(seed).normal(size=dim))


def build_instance_graph(scenario: Scenario,
                         where: str = "scenario") -> tuple[InstanceGraph, dict[str, int]]:
    """Synthesize detections from scenario ground truth and fuse them, one node
    per object: an object fused into another's node raises ValidationError."""
    graph = InstanceGraph(descriptor_dim=16)
    node_of: dict[str, int] = {}
    owner: dict[int, str] = {}
    for i, obj in enumerate(scenario.objects):
        lo, hi = obj.bbox()
        corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                            for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        points = np.vstack([corners, obj.position])
        det = Detection(label=obj.label, descriptor=_label_descriptor(obj.label),
                        points=points)
        node = graph.ingest_detection(det)
        if node in owner:
            raise ValidationError(f"{where}.objects[{i}]: object {obj.id!r} fuses with "
                                  f"{owner[node]!r} into one instance node")
        node_of[obj.id], owner[node] = node, obj.id
    return graph, node_of


def build_occupancy_grid(scenario: Scenario) -> OccupancyGrid:
    """Rasterize static obstacles; everything else starts Free (known poses)."""
    grid = OccupancyGrid(resolution=GRID_RESOLUTION, width=64, height=64,
                         origin_xy=(-3.2, -3.2))
    pts = [scenario.robot_start.position[:2]]
    for box in scenario.static_obstacles:
        pts += [box.min[:2], box.max[:2]]
    for obj in scenario.objects:
        pts.append(obj.position[:2])
    for p in pts:
        grid.ensure_contains(float(p[0]) - 2.0, float(p[1]) - 2.0)
        grid.ensure_contains(float(p[0]) + 2.0, float(p[1]) + 2.0)
    grid.cells[:] = 1  # FREE
    for box in scenario.static_obstacles:
        c0 = grid.world_to_cell(box.min[0], box.min[1])
        c1 = grid.world_to_cell(box.max[0], box.max[1])
        grid.cells[c0[1]:c1[1] + 1, c0[0]:c1[0] + 1] = OCCUPIED
    return grid


# ---------------------------------------------------------------------------
# episode execution
# ---------------------------------------------------------------------------

@dataclass
class ActionOutcome:
    index: int
    kind: str
    success: bool
    detail: str = ""


@dataclass
class MetricsReport:
    e_x: float = 0.0
    e_y: float = 0.0
    e_w: float = 0.0
    d_pos: float = 0.0
    d_ori: float = 0.0
    per_action: dict[str, ActionReport] = field(default_factory=dict)
    overall: bool | float = False
    episodes: int = 1


@dataclass
class EpisodeResult:
    trace: list[tuple]  # one row per tick, in TRACE_COLUMNS order
    outcomes: list[ActionOutcome]
    metrics: MetricsReport


def stage1_terms(cfg: Config, cmd: np.ndarray, act: np.ndarray,
                 timeline: ContactTimeline) -> dict[str, np.ndarray]:
    """The stage-1 reward terms, one column each: base velocity tracking of
    the commanded `(vx, vy, w)` rows `cmd` (n×3) by the rows `act`, and the
    gait and frequency of the n-tick timeline."""
    return {
        "track_xy": r_track_xy(cmd[:, :2], act[:, :2], cfg.gamma_xy),
        "track_yaw": r_track_yaw(cmd[:, 2], act[:, 2], cfg.gamma_w),
        "gait": r_gait(timeline),
        "freq": r_freq(timeline, cfg.f_target),
    }


# the synthetic gait's contact flags, in rewards.LEGS order (FL, FR, RL, RR)
TROT_PHASE_A = (True, False, False, True)  # FL and RR down
TROT_PHASE_B = (False, True, True, False)  # FR and RL down
STANCE = (True, True, True, True)


def trot_contacts(t: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """The synthetic gait's flags per tick: a trot clocked at 2 Hz while the
    base moves, stance otherwise."""
    moving = np.hypot(vx, vy) > 0.05
    phase_a = (t * 2.0) % 1.0 < 0.5
    trot = np.where(phase_a[:, None], TROT_PHASE_A, TROT_PHASE_B)
    return np.where(moving[:, None], trot, STANCE)


TRACE_COLUMNS = [
    "t", "action_index", "base_x", "base_y", "base_yaw",
    "cmd_vx", "act_vx", "cmd_vy", "act_vy", "cmd_w", "act_w",
    "ee_err_pos", "ee_err_ori",
    "r_track_xy", "r_track_yaw", "r_gait", "r_freq", "total_stage1",
]
EE_ERR = TRACE_COLUMNS.index("ee_err_pos")  # then ee_err_ori


class EpisodeRunner:
    """Owns one episode: world, grid, graph, monitor latches, trace, metrics.
    The scenario is read only, and so is `instances`, the scenario's
    `build_instance_graph` pair (built here when not given), so every episode
    of a scenario may share both."""

    def __init__(self, scenario: Scenario, dt: float = 0.02,
                 master_seed: Optional[int] = None, episode_index: int = 0,
                 config: Config | None = None,
                 instances: Optional[tuple[InstanceGraph, dict[str, int]]] = None):
        if not (math.isfinite(dt) and dt > 0.0):
            raise UsageError(f"dt must be finite and > 0, got {dt!r}")
        self.scenario = scenario
        self.dt = dt
        self.config = config or Config()
        seed = scenario.seed if master_seed is None else master_seed
        self.rng = episode_rng(seed, episode_index)
        self.world = make_world(scenario)
        self.grid = build_occupancy_grid(scenario)
        self.graph, self.node_of = instances or build_instance_graph(scenario)
        self.target_of = {self.node_of[obj.id]: obj for obj in scenario.objects}
        self.latched: dict[tuple[int, int], float] = {}  # (step, monitor) -> latch time
        self.ticks: list[tuple] = []  # per tick, TRACE_COLUMNS up to ee_err_ori
        self._ee_ticks = 0  # ticks with an end-effector command
        self._action_index = -1

    # -- plan ------------------------------------------------------------

    def build_plan(self) -> list[AtomicAction]:
        instruction = self.scenario.instruction
        actions = [AtomicAction(step.kind, step.description,
                                None if step.target is None else self.node_of[step.target],
                                step.waypoint)
                   for step in self.scenario.plan]
        return decompose(ScriptedPlanner({instruction: actions}), instruction, self.graph)

    # -- stepping --------------------------------------------------------

    def tick(self, base_cmd: LocomotionCommand, ee_cmd: Optional[Pose]) -> None:
        step(self.world, base_cmd, ee_cmd, self.dt, self.config.tracking, self.rng,
             self.scenario, self.grid)
        # a monitor may latch only while its own plan step runs
        i = self._action_index
        monitor_step(i, self.scenario.plan[i].monitors, self.world, self.world.t, self.latched)
        self._record(base_cmd, ee_cmd)

    def _record(self, base_cmd: LocomotionCommand, ee_cmd: Optional[Pose]) -> None:
        w = self.world
        if ee_cmd is not None:
            ee_pos_err = norm(w.ee_pose.position - ee_cmd.position)
            ee_ori_err = float(quat_geodesic_distance(w.ee_pose.orientation,
                                                      ee_cmd.orientation))
            self._ee_ticks += 1
        else:
            ee_pos_err = ee_ori_err = 0.0
        (x, y), (vx, vy, vw), c = w.base_xy, w.base_vel, base_cmd
        self.ticks.append((w.t, self._action_index, x, y, w.base_yaw, float(c.x), vx,
                           float(c.y), vy, float(c.w), vw, ee_pos_err, ee_ori_err))

    # -- primitive controllers -------------------------------------------
    # Each returns once it reaches its goal, or raises: `ActionFailed` when it
    # stops short, or the `LocomanError` of the layer that gave out.

    def _follow_path(self, path_points: list[np.ndarray], goal_xy: np.ndarray,
                     deadline: float) -> None:
        """Pure-pursuit style follower, until within goal tolerance. Each
        distance test is `norm_within`'s; the speed cap reads the distance
        only on a tick where it can bind."""
        # each difference on floats, as numpy's elementwise `-` gives it
        (gx, gy), targets = goal_xy.tolist(), [p.tolist() for p in path_points]
        idx, last = 0, len(targets) - 1
        # past this squared goal distance, dist / dt > 0.8 whatever the dot's
        # last bits, so the speed cap commands 0.8 without reading `norm`
        reach = 0.8 * self.dt
        cap = reach * reach * (1.0 + 1e-9)
        while self.world.t < deadline:
            x, y = self.world.base_xy
            dx, dy = x - gx, y - gy
            if norm_within(dx, dy, NAV_GOAL_TOL):
                self.tick(STOP, None)
                return
            tx, ty = targets[idx]
            while idx < last and norm_within(tx - x, ty - y, 0.3, strict=True):
                idx += 1
                tx, ty = targets[idx]
            err = _wrap(float(np.arctan2(ty - y, tx - x)) - self.world.base_yaw)
            w_cmd = min(max(2.0 * err, -1.0), 1.0)
            vx = 0.0
            if abs(err) < 0.5:
                # capped so that one tick does not carry the base past the goal
                vx = (0.8 if dx * dx + dy * dy > cap
                      else min(0.8, norm(np.array((dx, dy))) / self.dt))
            self.tick(LocomotionCommand(vx, 0.0, w_cmd), None)
        raise ActionFailed("navigation timeout")

    def _navigate_to(self, waypoint: np.ndarray) -> None:
        deadline = min(self.world.t + NAV_TIMEOUT, self.scenario.horizon)
        obstacles = [(box.min, box.max) for box in self.scenario.static_obstacles]
        for obj in self.scenario.objects:
            if obj.id in self.world.attachments:
                continue
            obstacles.append(obj.bbox(self.world.object_positions[obj.id]))
        goal = find_goal_pose(self.grid, waypoint, obstacles, GOAL_SEARCH, waypoint)
        ends = (self.world.base_xy, goal.position[:2])
        # grow for both ends before indexing either: growing west or south
        # moves the origin, and a cell indexed before that would be stale
        for x, y in ends:
            self.grid.ensure_contains(x, y)
        start_cell, goal_cell = (self.grid.world_to_cell(x, y) for x, y in ends)
        cells = plan_path(self.grid, start_cell, goal_cell,
                          inflation=GOAL_SEARCH.robot_inflation)
        points = [self.grid.cell_center(cx, cy) for cx, cy in cells]
        points.append(goal.position[:2])
        self._follow_path(points, goal.position[:2], deadline)

    def _move_ee_to(self, target: Pose, deadline: float, failure: str,
                    pos_tol: float = 0.01) -> None:
        """Track `target` until within tolerance; `failure` is the message
        raised at the deadline."""
        while self.world.t < deadline:
            self.tick(STOP, target)
            # the errors `_record` has just computed against `target`
            pos_err, ori_err = self.ticks[-1][EE_ERR:EE_ERR + 2]
            if pos_err <= pos_tol and ori_err <= 0.02:
                return
        raise ActionFailed(failure)

    def _ground_target(self, obj: SceneObject) -> Pose:
        """Run the grounding pipeline against a synthetic wrist camera view."""
        fixture = self.scenario.plan[self._action_index].grounding or GroundingFixture()
        true_attach = obj.attach_point(self.world.object_positions[obj.id])
        detected = true_attach + fixture.offset

        # camera looks at the true attach point from 0.6 m toward the robot
        toward_robot = self.world.base_pose.position - true_attach
        toward_robot[2] = abs(toward_robot[2]) + 0.4
        cam_pos = true_attach + 0.6 * unit(toward_robot)
        look_at = solve_orientation(None, None, true_attach - cam_pos)
        cam_world = Pose(cam_pos, matrix_to_quat(look_at))
        cam_in_base = self.world.base_pose.inverse().compose(cam_world)

        cam = CameraModel(fx=120.0, fy=120.0, cx=48.0, cy=48.0,
                          width=96, height=96, extrinsic=cam_in_base)
        p_cam = cam_world.inverse_transform(detected)
        if p_cam[2] <= 0.05:
            raise OracleFailure("detected contact point behind the wrist camera")
        pixel = cam.project(p_cam)
        depth = DepthImage.constant(96, 96, float(p_cam[2]))

        base_rot_t = self.world.base_pose.rotation().T
        axis = (fixture.dominant_axis if fixture.dominant_axis is not None
                else obj.dominant_axis)
        normal = (fixture.surface_normal if fixture.surface_normal is not None
                  else obj.surface_normal)
        result = GroundingResult(
            contact_pixel=pixel,
            dominant_axis=mat_vec(base_rot_t, axis) if axis is not None else None,
            surface_normal=mat_vec(base_rot_t, normal) if normal is not None else None)
        default_approach = mat_vec(base_rot_t, np.array([0.0, 0.0, -1.0]))
        return ground_action(ScriptedGrounding(result), cam, depth, None,
                             "grounding", default_approach=default_approach)

    # -- atomic actions --------------------------------------------------

    def _do_pick(self, action: AtomicAction) -> None:
        deadline = min(self.world.t + MANIP_TIMEOUT, self.scenario.horizon)
        obj = self.target_of[action.target_instance]
        try:
            target_base = self._ground_target(obj)
        except LocomanError as exc:
            raise ActionFailed(f"grounding failed: {exc}") from exc
        target_world = self.world.base_pose.compose(target_base)
        approach = quat_to_matrix(target_world.orientation)[:, 2]
        pre_contact = Pose(target_world.position - PRE_CONTACT_OFFSET * approach,
                           target_world.orientation)
        self._move_ee_to(pre_contact, deadline, "pre-contact alignment timeout")
        self._move_ee_to(target_world, deadline, "approach timeout")
        true_attach = obj.attach_point(self.world.object_positions[obj.id])
        pos_err = norm(self.world.ee_pose.position - true_attach)
        ori_err = quat_geodesic_distance(self.world.ee_pose.orientation,
                                         target_world.orientation)
        if pos_err > ATTACH_TOLERANCE or ori_err > ORI_TOLERANCE:
            raise ActionFailed(f"grasp missed: pos_err={pos_err:.3f} ori_err={ori_err:.3f}")
        rel = self.world.ee_pose.inverse().transform(self.world.object_positions[obj.id])
        self.world.attachments[obj.id] = ("ee", rel)
        self.world.contents.pop(obj.id, None)
        self.tick(STOP, self.world.ee_pose)

    def _do_place(self, action: AtomicAction) -> None:
        deadline = min(self.world.t + MANIP_TIMEOUT, self.scenario.horizon)
        carried = [oid for oid, (carrier, _) in self.world.attachments.items()
                   if carrier == "ee"]
        if not carried:
            raise ActionFailed("nothing attached to place")
        container = self.target_of[action.target_instance]
        offset = (container.container_offset if container.container_offset is not None
                  else vec3(0.0, 0.0, container.size[2] / 2.0 + 0.05))
        drop_point = self.world.object_positions[container.id] + offset
        hover = Pose(drop_point + vec3(0, 0, 0.15), self.world.ee_pose.orientation)
        self._move_ee_to(hover, deadline, "hover timeout", pos_tol=0.02)
        for oid in carried:  # the next tick drops each at `drop_point`, then it rides along
            del self.world.attachments[oid]
            self.world.contents[oid] = (container.id, offset)
        self.tick(STOP, None)

    def _do_push_pull(self, action: AtomicAction) -> None:
        deadline = min(self.world.t + MANIP_TIMEOUT, self.scenario.horizon)
        obj = self.target_of[action.target_instance]
        handle = obj.attach_point(self.world.object_positions[obj.id])
        grasp = Pose(handle, self.world.ee_pose.orientation)
        self._move_ee_to(grasp, deadline, "handle approach timeout", pos_tol=0.02)
        goal, lo, hi = obj.joint.goal, obj.joint.min, obj.joint.max
        rate = 0.4  # joint units per second
        while self.world.t < deadline:
            value = self.world.joint_values[obj.id]
            delta = min(max(goal - value, -rate * self.dt), rate * self.dt)
            self.world.joint_values[obj.id] = float(min(max(value + delta, lo), hi))
            self.tick(STOP, grasp)
            if abs(self.world.joint_values[obj.id] - goal) < 1e-9:
                return
        raise ActionFailed("articulation timeout")

    def _do_drag(self, action: AtomicAction) -> None:
        obj = (self.target_of[action.target_instance]
               if action.target_instance is not None  # else the first draggable object
               else next(o for o in self.scenario.objects if o.type == "draggable"))
        try:
            self._navigate_to(self.world.object_positions[obj.id])
        except LocomanError as exc:
            raise ActionFailed(f"approach failed: {exc}") from exc
        rel = self.world.base_pose.inverse().transform(self.world.object_positions[obj.id])
        self.world.attachments[obj.id] = ("base", rel)
        try:
            self._navigate_to(action.waypoint)
        except LocomanError as exc:
            raise ActionFailed(f"drag transit failed: {exc}") from exc
        finally:
            del self.world.attachments[obj.id]

    def execute_action(self, index: int, action: AtomicAction) -> ActionOutcome:
        """Run one action to its end. The message of the `LocomanError` that
        stops it is the outcome's detail; the episode goes on to the next."""
        self._action_index = index
        do = {ActionKind.NAVIGATE: lambda a: self._navigate_to(a.waypoint),
              ActionKind.PICK: self._do_pick,
              ActionKind.PLACE: self._do_place,
              ActionKind.PUSH_PULL: self._do_push_pull,
              ActionKind.DRAG: self._do_drag}[action.kind]
        try:
            if self.world.t >= self.scenario.horizon:
                raise ActionFailed("horizon exhausted")
            do(action)
        except LocomanError as exc:
            return ActionOutcome(index, action.kind.value, False, str(exc))
        return ActionOutcome(index, action.kind.value, True)

    # -- episode ---------------------------------------------------------

    def run(self) -> EpisodeResult:
        outcomes = [self.execute_action(i, action)
                    for i, action in enumerate(self.build_plan())]
        ticks = np.array(self.ticks, dtype=float).reshape(
            -1, TRACE_COLUMNS.index("r_track_xy"))
        # cmd_vx, act_vx, cmd_vy, act_vy, cmd_w, act_w are columns 5 to 10,
        # then ee_err_pos and ee_err_ori
        cmd, act, ee_err = ticks[:, 5:11:2], ticks[:, 6:11:2], ticks[:, 11:13]
        return EpisodeResult(trace=self._trace(ticks[:, 0], cmd, act), outcomes=outcomes,
                             metrics=self._metrics(outcomes, cmd, act, ee_err))

    def _trace(self, t: np.ndarray, cmd: np.ndarray, act: np.ndarray) -> list[tuple]:
        """Each tick's row followed by its stage-1 reward terms and their
        total, all scored at once over the episode's columns."""
        timeline = ContactTimeline()
        timeline.update(trot_contacts(t, act[:, 0], act[:, 1]), self.dt, t)
        terms = stage1_terms(self.config, cmd, act, timeline)
        total = total_reward(1, terms, self.config.reward_weights)
        scored = zip(*(column.tolist() for column in (*terms.values(), total)))
        return [row + rewards for row, rewards in zip(self.ticks, scored)]

    def _metrics(self, outcomes: list[ActionOutcome], cmd: np.ndarray, act: np.ndarray,
                 ee_err: np.ndarray) -> MetricsReport:
        """e_x, e_y and e_w: the mean |cmd - act| over the ticks with a
        non-zero command; d_pos and d_ori: the mean end-effector errors over
        the ticks with an end-effector command (any other tick records 0.0).
        Each sum is added tick by tick in order; numpy's pairwise `sum` can
        round otherwise."""
        per_action, overall = report(self.scenario.plan, outcomes, self.latched)
        e, n = np.abs(cmd - act)[np.any(cmd != 0.0, axis=1)], self._ee_ticks
        err = (np.add.accumulate(e)[-1] / len(e)).tolist() if len(e) else [0.0] * 3
        ee = (np.add.accumulate(ee_err)[-1] / n).tolist() if n else [0.0] * 2
        return MetricsReport(
            e_x=err[0], e_y=err[1], e_w=err[2], d_pos=ee[0], d_ori=ee[1],
            per_action=dict(sorted(per_action.items())), overall=overall, episodes=1)


def run_episode(scenario: Scenario, dt: float = 0.02, master_seed: Optional[int] = None,
                episode_index: int = 0, config: Config | None = None,
                instances: Optional[tuple[InstanceGraph, dict[str, int]]] = None) -> EpisodeResult:
    return EpisodeRunner(scenario, dt=dt, master_seed=master_seed,
                         episode_index=episode_index, config=config,
                         instances=instances).run()


def aggregate(reports: list[MetricsReport]) -> MetricsReport:
    """Fold per-episode reports: mean errors, pooled per-action rates."""
    if not reports:
        raise ValueError("need at least one report")
    per_action: dict[str, ActionReport] = {}
    for rep in reports:
        for kind, entry in rep.per_action.items():
            per_action.setdefault(kind, ActionReport()).add(entry.completed, entry.total)
    n = len(reports)
    return MetricsReport(
        e_x=sum(r.e_x for r in reports) / n,
        e_y=sum(r.e_y for r in reports) / n,
        e_w=sum(r.e_w for r in reports) / n,
        d_pos=sum(r.d_pos for r in reports) / n,
        d_ori=sum(r.d_ori for r in reports) / n,
        per_action=dict(sorted(per_action.items())),
        overall=sum(1 for r in reports if r.overall) / n,
        episodes=n)


# ---------------------------------------------------------------------------
# artifact export
# ---------------------------------------------------------------------------

def write_csv(path, columns, rows) -> None:
    """The one table format: a header line, then one line per row of numbers,
    an int as an integer and any other number as the repr of its float (under
    numpy 2 an np.float64's own repr reads `np.float64(...)`). Lines end in
    CRLF, as `csv` writes them; no number needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for row in rows:
            fh.write(",".join([repr(v) if type(v) is float
                               else str(v) if isinstance(v, int) else repr(float(v))
                               for v in row]) + "\r\n")


def write_json(payload: dict, path) -> None:
    """The one JSON format: 2-space indent, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(trace: list[tuple], path) -> None:
    write_csv(path, TRACE_COLUMNS, trace)


def write_report(result_metrics: MetricsReport, path,
                 extra: Optional[dict] = None) -> None:
    payload = to_dict(result_metrics)
    payload.update({f"{k}_x100": payload[k] * 100.0 for k in ("e_x", "e_y", "e_w")})
    if extra:
        payload.update(extra)
    write_json(payload, path)
