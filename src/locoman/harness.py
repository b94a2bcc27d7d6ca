"""Deterministic kinematic 2.5D simulator.

Runs scenario bundles (`locoman.scenario`), replaces the trained policy with
a configurable tracking model (first-order base lag, exponential
end-effector convergence, optional noise), executes atomic actions through
primitive controllers, and emits per-episode traces and metric reports.
Everything downstream of (scenario, seed, dt, fixtures) is bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import Config, TrackingConfig, to_dict
from .errors import LocomanError, NoFeasibleGoal, NoPath, OracleFailure, ValidationError
from .fusion import Detection, FusionConfig, InstanceGraph
from .geometry import (Pose, norm, quat_from_axis_angle, quat_geodesic_distance,
                       quat_mul, quat_normalize, quat_slerp, matrix_to_quat,
                       quat_to_matrix, unit, vec3, wrap_angle)
from .grounding import (CameraModel, DepthImage, GroundingResult, ground_action)
from .navgrid import (GoalSearchConfig, OccupancyGrid, OCCUPIED, find_goal_pose,
                      footprint_clear, plan_path)
from .planning import (ActionKind, ActionReport, AtomicAction, ScriptedPlanner,
                       TaskPlan, decompose, monitor_step, report)
from .rewards import (ContactTimeline, r_freq, r_gait,
                      r_track_xy, r_track_yaw, total_reward)
from .sampling import LocomotionCommand, episode_rng
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

# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------

@dataclass
class WorldState:
    t: float
    base_pose: Pose
    base_vel: np.ndarray              # (vx, vy) base frame + (omega,)
    ee_pose: Pose
    attachments: dict = field(default_factory=dict)  # obj id -> (carrier, rel Pose)
    object_poses: dict = field(default_factory=dict)
    joint_values: dict = field(default_factory=dict)


def make_world(scenario: Scenario) -> WorldState:
    x, y = scenario.robot_start.position[:2]
    base = Pose.from_xy_yaw(x, y, scenario.robot_start.yaw,
                            z=scenario.height_at(x, y) + BASE_STAND_HEIGHT)
    ee = Pose(base.transform(vec3(0.3, 0.0, 0.2)), base.orientation)
    object_poses = {obj.id: obj.pose() for obj in scenario.objects}
    joint_values = {obj.id: obj.joint.value
                    for obj in scenario.objects if obj.joint is not None}
    return WorldState(t=0.0, base_pose=base, base_vel=np.zeros(3), ee_pose=ee,
                      object_poses=object_poses, joint_values=joint_values)


def step(world: WorldState, base_cmd: LocomotionCommand,
         ee_cmd: Optional[Pose], dt: float, tracking: TrackingConfig,
         rng: np.random.Generator, scenario: Scenario,
         grid: Optional[OccupancyGrid] = None) -> None:
    """Advance the world one tick in place."""
    cmd = base_cmd.as_array()
    if tracking.tau_base <= 0.0:
        world.base_vel = cmd.copy()
    else:
        alpha = 1.0 - np.exp(-dt / tracking.tau_base)
        world.base_vel = world.base_vel + alpha * (cmd - world.base_vel)

    vx, vy, w = world.base_vel
    yaw = world.base_pose.yaw()
    nx = world.base_pose.position[0] + (vx * np.cos(yaw) - vy * np.sin(yaw)) * dt
    ny = world.base_pose.position[1] + (vx * np.sin(yaw) + vy * np.cos(yaw)) * dt
    new_yaw = float(wrap_angle(yaw + w * dt))
    collided = grid is not None and not footprint_clear(grid, nx, ny,
                                                       BASE_FOOTPRINT_RADIUS)
    if collided:
        # terrain contact halts base motion for this tick
        world.base_vel = np.zeros(3)
    else:
        nz = scenario.height_at(nx, ny) + BASE_STAND_HEIGHT
        world.base_pose = Pose.from_xy_yaw(nx, ny, new_yaw, z=nz)

    if ee_cmd is not None:
        decay = float(np.exp(-tracking.ee_rate * dt))
        pos = ee_cmd.position + (world.ee_pose.position - ee_cmd.position) * decay
        ori = quat_slerp(world.ee_pose.orientation, ee_cmd.orientation, 1.0 - decay)
        if tracking.noise_pos > 0.0:
            pos = pos + rng.normal(0.0, tracking.noise_pos, size=3)
        if tracking.noise_ori > 0.0:
            axis = unit(rng.normal(size=3))
            angle = float(rng.normal(0.0, tracking.noise_ori))
            ori = quat_normalize(quat_mul(quat_from_axis_angle(axis, angle), ori))
        world.ee_pose = Pose(pos, ori)

    for oid, (carrier, rel) in world.attachments.items():
        anchor = world.ee_pose if carrier == "ee" else world.base_pose
        world.object_poses[oid] = anchor.compose(rel)

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
    g = np.random.Generator(np.random.PCG64(seed))
    v = g.normal(size=dim)
    return v / np.linalg.norm(v)


def build_instance_graph(scenario: Scenario,
                         where: str = "scenario") -> tuple[InstanceGraph, dict[str, int]]:
    """Synthesize detections from scenario ground truth and fuse them, one node
    per object: an object fused into another's node raises ValidationError."""
    graph = InstanceGraph(descriptor_dim=16, cfg=FusionConfig())
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
                 timeline: ContactTimeline) -> dict[str, float]:
    """The stage-1 reward terms of one tick: base velocity tracking of the
    command `(vx, vy, w)` by `act`, and the gait and frequency of the timeline."""
    return {
        "track_xy": r_track_xy(cmd[:2], act[:2], cfg.gamma_xy),
        "track_yaw": r_track_yaw(cmd[2], act[2], cfg.gamma_w),
        "gait": r_gait(timeline),
        "freq": r_freq(timeline, cfg.f_target),
    }


TRACE_COLUMNS = [
    "t", "action_index", "base_x", "base_y", "base_yaw",
    "cmd_vx", "act_vx", "cmd_vy", "act_vy", "cmd_w", "act_w",
    "ee_err_pos", "ee_err_ori",
    "r_track_xy", "r_track_yaw", "r_gait", "r_freq", "total_stage1",
]


class EpisodeRunner:
    """Owns one episode: world, grid, graph, monitor latches, trace, metrics.
    The scenario is read only, so every episode of a run may share it."""

    def __init__(self, scenario: Scenario, dt: float = 0.02,
                 master_seed: Optional[int] = None, episode_index: int = 0,
                 config: Config | None = None):
        self.scenario = scenario
        self.dt = dt
        self.config = config or Config()
        seed = scenario.seed if master_seed is None else master_seed
        self.rng = episode_rng(seed, episode_index)
        self.world = make_world(scenario)
        self.grid = build_occupancy_grid(scenario)
        self.graph, self.node_of = build_instance_graph(scenario)
        self.target_of = {self.node_of[obj.id]: obj for obj in scenario.objects}
        self.latched: dict[int, float] = {}  # monitor index -> latch time
        self._monitors_at = {i: [(j, m) for j, m in enumerate(scenario.monitors)
                                 if m.step == i] for i in range(len(scenario.plan))}
        self.trace: list[tuple] = []
        self.outcomes: list[ActionOutcome] = []
        self.timeline = ContactTimeline()
        self._err_sums = np.zeros(3)
        self._err_ticks = 0
        self._ee_err_sums = np.zeros(2)
        self._ee_ticks = 0
        self._action_index = -1

    # -- plan ------------------------------------------------------------

    def build_plan(self) -> TaskPlan:
        instruction = self.scenario.instruction
        actions = [AtomicAction(step.kind, step.description,
                                None if step.target is None else self.node_of[step.target],
                                step.waypoint)
                   for step in self.scenario.plan]
        planner = ScriptedPlanner({instruction: TaskPlan(instruction, actions)})
        return decompose(planner, instruction, self.graph)

    # -- stepping --------------------------------------------------------

    def tick(self, base_cmd: LocomotionCommand, ee_cmd: Optional[Pose]) -> None:
        step(self.world, base_cmd, ee_cmd, self.dt, self.config.tracking, self.rng,
             self.scenario, self.grid)
        # a monitor may latch only while its own plan step runs
        monitor_step(self._monitors_at.get(self._action_index, []), self.world, self.world.t,
                     self.latched)
        self._record(base_cmd, ee_cmd)

    def _record(self, base_cmd: LocomotionCommand, ee_cmd: Optional[Pose]) -> None:
        w = self.world
        cmd = base_cmd.as_array()
        err = np.abs(cmd - w.base_vel)
        command_active = bool(np.any(cmd != 0.0))
        if command_active:
            self._err_sums += err
            self._err_ticks += 1
        if ee_cmd is not None:
            ee_pos_err = norm(w.ee_pose.position - ee_cmd.position)
            ee_ori_err = quat_geodesic_distance(w.ee_pose.orientation,
                                                ee_cmd.orientation)
            self._ee_err_sums += (ee_pos_err, ee_ori_err)
            self._ee_ticks += 1
        else:
            ee_pos_err = ee_ori_err = 0.0

        # synthetic trot clocked at 2 Hz while the base moves, stance otherwise
        moving = float(np.hypot(w.base_vel[0], w.base_vel[1])) > 0.05
        if moving:
            phase = (w.t * 2.0) % 1.0
            diag_a = phase < 0.5
            contacts = {"FL": diag_a, "RR": diag_a, "FR": not diag_a, "RL": not diag_a}
        else:
            contacts = {leg: True for leg in ("FL", "FR", "RL", "RR")}
        self.timeline.update(contacts, self.dt, w.t)

        terms = stage1_terms(self.config, cmd, w.base_vel, self.timeline)
        pos, vel = w.base_pose.position, w.base_vel
        self.trace.append((
            w.t, self._action_index, pos[0], pos[1], w.base_pose.yaw(),
            cmd[0], vel[0], cmd[1], vel[1], cmd[2], vel[2], ee_pos_err, ee_ori_err,
            *terms.values(), total_reward(1, terms, self.config.reward_weights)))

    # -- primitive controllers -------------------------------------------

    def _follow_path(self, path_points: list[np.ndarray], goal_xy: np.ndarray,
                     deadline: float) -> bool:
        """Pure-pursuit style follower; True when within goal tolerance."""
        idx = 0
        while self.world.t < deadline:
            pos = self.world.base_pose.position[:2]
            if norm(pos - goal_xy) <= NAV_GOAL_TOL:
                self.tick(LocomotionCommand(0, 0, 0), None)
                return True
            while (idx < len(path_points) - 1
                   and norm(path_points[idx] - pos) < 0.3):
                idx += 1
            target = path_points[idx]
            yaw = self.world.base_pose.yaw()
            heading = np.arctan2(target[1] - pos[1], target[0] - pos[0])
            err = float(wrap_angle(heading - yaw))
            w_cmd = float(np.clip(2.0 * err, -1.0, 1.0))
            vx = 0.8 if abs(err) < 0.5 else 0.0
            self.tick(LocomotionCommand(vx, 0.0, w_cmd), None)
        return False

    def _navigate_to(self, waypoint: np.ndarray) -> tuple[bool, str]:
        deadline = min(self.world.t + NAV_TIMEOUT, self.scenario.horizon)
        obstacles = [(box.min, box.max) for box in self.scenario.static_obstacles]
        for obj in self.scenario.objects:
            if obj.id in self.world.attachments:
                continue
            obstacles.append(obj.bbox(self.world.object_poses[obj.id].position))
        try:
            goal = find_goal_pose(self.grid, waypoint, obstacles, GOAL_SEARCH,
                                  waypoint)
        except NoFeasibleGoal as exc:
            return False, str(exc)
        start_cell = self.grid.ensure_contains(*self.world.base_pose.position[:2])
        goal_cell = self.grid.ensure_contains(*goal.position[:2])
        try:
            cells = plan_path(self.grid, start_cell, goal_cell,
                              inflation=GOAL_SEARCH.robot_inflation)
        except NoPath as exc:
            return False, str(exc)
        points = [self.grid.cell_center(cx, cy) for cx, cy in cells]
        points.append(goal.position[:2])
        ok = self._follow_path(points, goal.position[:2], deadline)
        return ok, "" if ok else "navigation timeout"

    def _move_ee_to(self, target: Pose, deadline: float,
                    pos_tol: float = 0.01) -> bool:
        while self.world.t < deadline:
            self.tick(LocomotionCommand(0, 0, 0), target)
            close = (norm(self.world.ee_pose.position - target.position) <= pos_tol
                     and quat_geodesic_distance(self.world.ee_pose.orientation,
                                                target.orientation) <= 0.02)
            if close:
                return True
        return False

    def _ground_target(self, obj: SceneObject) -> Pose:
        """Run the grounding pipeline against a synthetic wrist camera view."""
        fixture = self.scenario.grounding.get(self._action_index) or GroundingFixture()
        true_attach = obj.attach_point(self.world.object_poses[obj.id].position)
        detected = true_attach + fixture.offset

        # camera looks at the true attach point from 0.6 m toward the robot
        toward_robot = self.world.base_pose.position - true_attach
        toward_robot[2] = abs(toward_robot[2]) + 0.4
        cam_pos = true_attach + 0.6 * unit(toward_robot)
        z_axis = unit(true_attach - cam_pos)
        x_ref = np.array([1.0, 0.0, 0.0])
        if abs(float(np.dot(x_ref, z_axis))) > 0.95:
            x_ref = np.array([0.0, 1.0, 0.0])
        x_axis = unit(x_ref - np.dot(x_ref, z_axis) * z_axis)
        y_axis = np.cross(z_axis, x_axis)
        cam_world = Pose(cam_pos, matrix_to_quat(np.column_stack([x_axis, y_axis, z_axis])))
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
            dominant_axis=base_rot_t @ axis if axis is not None else None,
            surface_normal=base_rot_t @ normal if normal is not None else None)
        default_approach = base_rot_t @ np.array([0.0, 0.0, -1.0])
        return ground_action(ScriptedGrounding(result), cam, depth, None,
                             "grounding", default_approach=default_approach)

    # -- atomic actions --------------------------------------------------

    def _do_pick(self, action: AtomicAction) -> tuple[bool, str]:
        deadline = min(self.world.t + MANIP_TIMEOUT, self.scenario.horizon)
        obj = self.target_of[action.target_instance]
        try:
            target_base = self._ground_target(obj)
        except LocomanError as exc:
            return False, f"grounding failed: {exc}"
        target_world = self.world.base_pose.compose(target_base)
        approach = quat_to_matrix(target_world.orientation)[:, 2]
        pre_contact = Pose(target_world.position - PRE_CONTACT_OFFSET * approach,
                           target_world.orientation)
        if not self._move_ee_to(pre_contact, deadline):
            return False, "pre-contact alignment timeout"
        if not self._move_ee_to(target_world, deadline):
            return False, "approach timeout"
        true_attach = obj.attach_point(self.world.object_poses[obj.id].position)
        pos_err = float(np.linalg.norm(self.world.ee_pose.position - true_attach))
        ori_err = quat_geodesic_distance(self.world.ee_pose.orientation,
                                         target_world.orientation)
        if pos_err > ATTACH_TOLERANCE or ori_err > ORI_TOLERANCE:
            return False, f"grasp missed: pos_err={pos_err:.3f} ori_err={ori_err:.3f}"
        rel = self.world.ee_pose.inverse().compose(self.world.object_poses[obj.id])
        self.world.attachments[obj.id] = ("ee", rel)
        self.tick(LocomotionCommand(0, 0, 0), self.world.ee_pose)
        return True, ""

    def _do_place(self, action: AtomicAction) -> tuple[bool, str]:
        deadline = min(self.world.t + MANIP_TIMEOUT, self.scenario.horizon)
        carried = [oid for oid, (carrier, _) in self.world.attachments.items()
                   if carrier == "ee"]
        if not carried:
            return False, "nothing attached to place"
        container = self.target_of[action.target_instance]
        offset = (container.container_offset if container.container_offset is not None
                  else vec3(0.0, 0.0, container.size[2] / 2.0 + 0.05))
        drop_point = self.world.object_poses[container.id].position + offset
        hover = Pose(drop_point + vec3(0, 0, 0.15), self.world.ee_pose.orientation)
        if not self._move_ee_to(hover, deadline, pos_tol=0.02):
            return False, "hover timeout"
        for oid in carried:
            del self.world.attachments[oid]
            pose = self.world.object_poses[oid]
            self.world.object_poses[oid] = Pose(drop_point.copy(), pose.orientation)
        self.tick(LocomotionCommand(0, 0, 0), None)
        return True, ""

    def _do_push_pull(self, action: AtomicAction) -> tuple[bool, str]:
        deadline = min(self.world.t + MANIP_TIMEOUT, self.scenario.horizon)
        obj = self.target_of[action.target_instance]
        handle = obj.attach_point(self.world.object_poses[obj.id].position)
        grasp = Pose(handle, self.world.ee_pose.orientation)
        if not self._move_ee_to(grasp, deadline, pos_tol=0.02):
            return False, "handle approach timeout"
        goal, lo, hi = obj.joint.goal, obj.joint.min, obj.joint.max
        rate = 0.4  # joint units per second
        while self.world.t < deadline:
            value = self.world.joint_values[obj.id]
            delta = np.clip(goal - value, -rate * self.dt, rate * self.dt)
            self.world.joint_values[obj.id] = float(np.clip(value + delta, lo, hi))
            self.tick(LocomotionCommand(0, 0, 0), grasp)
            if abs(self.world.joint_values[obj.id] - goal) < 1e-9:
                return True, ""
        return False, "articulation timeout"

    def _do_drag(self, action: AtomicAction) -> tuple[bool, str]:
        obj = (self.target_of[action.target_instance]
               if action.target_instance is not None  # else the first draggable object
               else next(o for o in self.scenario.objects if o.type == "draggable"))
        obj_pos = self.world.object_poses[obj.id].position
        ok, why = self._navigate_to(obj_pos)
        if not ok:
            return False, f"approach failed: {why}"
        rel = self.world.base_pose.inverse().compose(self.world.object_poses[obj.id])
        self.world.attachments[obj.id] = ("base", rel)
        ok, why = self._navigate_to(action.waypoint)
        del self.world.attachments[obj.id]
        if not ok:
            return False, f"drag transit failed: {why}"
        return True, ""

    def execute_action(self, index: int, action: AtomicAction) -> ActionOutcome:
        self._action_index = index
        try:
            if action.kind is ActionKind.NAVIGATE:
                ok, detail = self._navigate_to(action.waypoint)
            elif action.kind is ActionKind.PICK:
                ok, detail = self._do_pick(action)
            elif action.kind is ActionKind.PLACE:
                ok, detail = self._do_place(action)
            elif action.kind is ActionKind.PUSH_PULL:
                ok, detail = self._do_push_pull(action)
            else:
                ok, detail = self._do_drag(action)
        except LocomanError as exc:
            # oracle/geometry failures are recorded, never abort the episode
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return ActionOutcome(index=index, kind=action.kind.value, success=ok,
                             detail=detail)

    # -- episode ---------------------------------------------------------

    def run(self) -> EpisodeResult:
        plan = self.build_plan()
        for i, action in enumerate(plan.actions):
            if self.world.t >= self.scenario.horizon:
                self.outcomes.append(ActionOutcome(i, action.kind.value, False,
                                                   "horizon exhausted"))
                continue
            self.outcomes.append(self.execute_action(i, action))
        return EpisodeResult(trace=self.trace, outcomes=self.outcomes,
                             metrics=self._metrics())

    def _metrics(self) -> MetricsReport:
        per_action, overall = report(self.scenario.monitors,
                                     [s.kind for s in self.scenario.plan], self.latched)
        err = (self._err_sums / self._err_ticks) if self._err_ticks else np.zeros(3)
        ee = (self._ee_err_sums / self._ee_ticks) if self._ee_ticks else np.zeros(2)
        return MetricsReport(
            e_x=float(err[0]), e_y=float(err[1]), e_w=float(err[2]),
            d_pos=float(ee[0]), d_ori=float(ee[1]),
            per_action=dict(sorted(per_action.items())), overall=overall, episodes=1)


def run_episode(scenario: Scenario, dt: float = 0.02,
                master_seed: Optional[int] = None,
                episode_index: int = 0,
                config: Config | None = None) -> EpisodeResult:
    return EpisodeRunner(scenario, dt=dt, master_seed=master_seed,
                         episode_index=episode_index, config=config).run()


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
            fh.write(",".join([str(v) if isinstance(v, int) else repr(float(v))
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
