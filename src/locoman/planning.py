"""Task decomposition, plan validation, and subtask goal monitoring.

A plan is an ordered list of atomic actions (navigate, pick, place,
push/pull, drag) produced by a planner oracle from an instruction and the
instance-graph summary. A subtask monitor scores one plan step: it latches
once its goal condition holds while that step runs, and never reverts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Protocol

import numpy as np

from .errors import OracleFailure, UnknownObject
from .fusion import InstanceGraph
from .geometry import norm


class ActionKind(Enum):
    NAVIGATE = "navigate"
    PICK = "pick"
    PLACE = "place"
    PUSH_PULL = "push_pull"
    DRAG = "drag"


@dataclass
class AtomicAction:
    kind: ActionKind
    description: str
    target_instance: Optional[int] = None
    waypoint: Optional[np.ndarray] = None  # world frame

    def __post_init__(self):
        if self.waypoint is not None:
            self.waypoint = np.asarray(self.waypoint, dtype=float)


@dataclass
class TaskPlan:
    instruction: str
    actions: list[AtomicAction]


@dataclass(frozen=True)
class InvalidPlan:
    action_index: int
    reason: str

    def __str__(self):
        return f"action {self.action_index}: {self.reason}"


class PlannerOracle(Protocol):
    def plan(self, instruction: str, graph_summary: list[dict]) -> Optional[TaskPlan]: ...


class ScriptedPlanner:
    """Planner oracle backed by a fixture mapping instructions to plans."""

    def __init__(self, fixtures: dict[str, TaskPlan]):
        self.fixtures = fixtures

    def plan(self, instruction: str, graph_summary: list[dict]) -> Optional[TaskPlan]:
        return self.fixtures.get(instruction)


# spatial-displacement actions must carry a waypoint; object-centric ones a target
NEEDS_WAYPOINT = {ActionKind.NAVIGATE, ActionKind.DRAG}
NEEDS_TARGET = {ActionKind.PICK, ActionKind.PLACE, ActionKind.PUSH_PULL}


def validate_plan(plan: TaskPlan, graph: InstanceGraph) -> Optional[InvalidPlan]:
    """None when valid, else the first violation with its action index."""
    if not plan.actions:
        return InvalidPlan(0, "plan is empty")
    for i, action in enumerate(plan.actions):
        if action.kind in NEEDS_WAYPOINT and action.waypoint is None:
            return InvalidPlan(i, f"{action.kind.value} missing waypoint")
        if action.kind in NEEDS_TARGET and action.target_instance is None:
            return InvalidPlan(i, f"{action.kind.value} missing target instance")
        if action.target_instance is not None and action.target_instance not in graph.nodes:
            return InvalidPlan(i, f"unknown instance {action.target_instance}")
    return None


def decompose(oracle: PlannerOracle, instruction: str, graph: InstanceGraph) -> TaskPlan:
    if not instruction.strip():
        raise OracleFailure("empty instruction")
    plan = oracle.plan(instruction, graph.graph_summary())
    if plan is None:
        raise OracleFailure(f"planner produced no plan for {instruction!r}")
    problem = validate_plan(plan, graph)
    if problem is not None:
        raise OracleFailure(f"invalid plan: {problem}")
    for i, action in enumerate(plan.actions):
        if not action.description.strip():
            raise OracleFailure(f"action {i} missing description")
    return plan


# ---------------------------------------------------------------------------
# goal conditions & monitors
# ---------------------------------------------------------------------------

class ConditionKind(Enum):
    ROBOT_NEAR = "robot_near"
    OBJECT_NEAR = "object_near"
    RELATIVE_POSE = "relative_pose"
    ATTACHED = "attached"
    DETACHED = "detached"
    JOINT_OPEN = "joint_open"
    JOINT_CLOSED = "joint_closed"


# the fields each condition kind reads: those it needs, then those it may set
# (a joint kind compares against 0 by default); a kind reads no other field
MONITOR_READS = {
    ConditionKind.ROBOT_NEAR: (("point", "threshold"), ()),
    ConditionKind.OBJECT_NEAR: (("object", "point", "threshold"), ()),
    ConditionKind.RELATIVE_POSE: (("object", "other", "threshold"), ()),
    ConditionKind.ATTACHED: (("object",), ()),
    ConditionKind.DETACHED: (("object",), ()),
    ConditionKind.JOINT_OPEN: (("object",), ("threshold",)),
    ConditionKind.JOINT_CLOSED: (("object",), ("threshold",)),
}
_NEEDS = {"object": "an object", "other": "an other object", "point": "a point",
          "threshold": "a positive threshold"}


@dataclass(frozen=True)
class SubtaskMonitor:
    """One scenario `monitors` entry: a goal condition that scores plan step
    `step` and counts toward that step's kind. Its latch is episode state,
    kept by the episode runner."""

    name: str
    kind: ConditionKind
    step: int
    object: Optional[str] = None
    other: Optional[str] = None
    point: Optional[np.ndarray] = None
    threshold: float = 0.0  # radius / max distance / joint threshold

    def __post_init__(self):
        needs, may = MONITOR_READS[self.kind]
        for name, noun in _NEEDS.items():
            value = getattr(self, name)
            is_threshold = name == "threshold"
            if name in needs and (value <= 0.0 if is_threshold else value is None):
                raise ValueError(name, f"{self.kind.value} needs {noun}")
            if name not in needs + may and (value != 0.0 if is_threshold
                                             else value is not None):
                raise ValueError(name, f"{self.kind.value} never reads it")


def _object_position(world, oid: str) -> np.ndarray:
    pose = world.object_poses.get(oid)
    if pose is None:
        raise UnknownObject(f"no object {oid!r} in world state")
    return pose.position


def condition_holds(m: SubtaskMonitor, world) -> bool:
    k = m.kind
    if k in (ConditionKind.ROBOT_NEAR, ConditionKind.OBJECT_NEAR):
        p = (world.base_pose.position if k is ConditionKind.ROBOT_NEAR
             else _object_position(world, m.object))
        return norm(p[:2] - np.asarray(m.point[:2])) <= m.threshold
    if k is ConditionKind.RELATIVE_POSE:
        pa = _object_position(world, m.object)
        pb = _object_position(world, m.other)
        return norm(pa - pb) <= m.threshold
    if k is ConditionKind.ATTACHED:
        return m.object in world.attachments
    if k is ConditionKind.DETACHED:
        return m.object not in world.attachments
    if k in (ConditionKind.JOINT_OPEN, ConditionKind.JOINT_CLOSED):
        value = world.joint_values.get(m.object)
        if value is None:
            raise UnknownObject(f"no articulation {m.object!r} in world state")
        return value >= m.threshold if k is ConditionKind.JOINT_OPEN else value <= m.threshold
    raise ValueError(f"unhandled condition kind {k}")


def monitor_step(pending: list[tuple[int, SubtaskMonitor]], world, t: float,
                 latched: dict[int, float]) -> None:
    """Latch at `t` each `(index, monitor)` of `pending` not yet in `latched`
    whose condition now holds. Monotone: a latch never reverts."""
    for i, m in pending:
        if i not in latched and condition_holds(m, world):
            latched[i] = t


@dataclass
class ActionReport:
    """Completed and total monitors of one action kind; `rate` follows them."""

    completed: int = 0
    total: int = 0
    rate: float = 0.0

    def add(self, completed: int, total: int) -> None:
        self.completed += completed
        self.total += total
        self.rate = self.completed / self.total if self.total else 0.0


def report(monitors: list[SubtaskMonitor], kinds: list[ActionKind],
           latched: dict[int, float]) -> tuple[dict[str, ActionReport], bool]:
    """Success map by the kind of each monitor's step plus the overall
    conjunction; monitor `i` succeeded when `latched` holds its index."""
    buckets: dict[str, ActionReport] = {}
    for i, m in enumerate(monitors):
        buckets.setdefault(kinds[m.step].value, ActionReport()).add(int(i in latched), 1)
    overall = all(i in latched for i in range(len(monitors)))
    return buckets, overall
