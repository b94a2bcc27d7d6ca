"""Task decomposition, plan validation, and subtask goal monitoring.

A plan is an ordered list of atomic actions (navigate, pick, place,
push/pull, drag) produced by a planner oracle from an instruction and the
instance-graph summary. `STEP_READS` names the fields each action kind
reads and `MONITOR_READS` those each condition kind reads; one rule,
`reads_fault`, applies them to scenario steps, monitors and every planner's
plan. A subtask monitor belongs to the plan step that holds it: it latches
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


class PlannerOracle(Protocol):
    def plan(self, instruction: str,
             graph_summary: list[dict]) -> Optional[list[AtomicAction]]: ...


class ScriptedPlanner:
    """Planner oracle backed by a fixture mapping instructions to action lists."""

    def __init__(self, fixtures: dict[str, list[AtomicAction]]):
        self.fixtures = fixtures

    def plan(self, instruction: str, graph_summary: list[dict]) -> Optional[list[AtomicAction]]:
        return self.fixtures.get(instruction)


# the fields each action kind reads: those it needs, then those it may set (a
# drag without a target hauls the draggable object; only a pick is grounded)
STEP_READS = {
    ActionKind.NAVIGATE: (("waypoint",), ()),
    ActionKind.PICK: (("target",), ("grounding",)),
    ActionKind.PLACE: (("target",), ()),
    ActionKind.PUSH_PULL: (("target",), ()),
    ActionKind.DRAG: (("waypoint",), ("target",)),
}
_NEEDS = {"target": "a target", "waypoint": "a waypoint", "grounding": "a grounding",
          "object": "an object", "other": "an other object", "point": "a point",
          "threshold": "a positive threshold"}


def reads_fault(kind: Enum, needs: tuple, may: tuple, values: dict) -> Optional[tuple]:
    """The first `(field, message)` by which `values`, a record's fields by name,
    break `kind`'s `(needs, may)` row: a needed field unset, or a field of `_NEEDS`
    outside the row set. Unset is None; a threshold is unset at <= 0 if needed, else at 0.0."""
    for name in [n for n in _NEEDS if n in values]:
        value, number = values[name], name == "threshold"
        if name in needs and (value <= 0.0 if number else value is None):
            return name, f"{kind.value} needs {_NEEDS[name]}"
        if name not in needs + may and (value != 0.0 if number else value is not None):
            return name, f"{kind.value} never reads it"
    return None


# metres on |x|, |y| and |z| of every scene point and waypoint: the occupancy
# grid grows to cover each x and y, so an unbounded one is an unbounded grid,
# and fusion voxelises object points, whose voxel index a huge z overflows
SCENE_BOUND = 100.0


def bound_fault(p: np.ndarray) -> Optional[str]:
    """Why a world point lies past SCENE_BOUND, else None."""
    if not (abs(p[0]) <= SCENE_BOUND and abs(p[1]) <= SCENE_BOUND):
        return f"|x| and |y| must be <= {SCENE_BOUND:g} m, got {p.tolist()}"
    if len(p) > 2 and not abs(p[2]) <= SCENE_BOUND:
        return f"|z| must be <= {SCENE_BOUND:g} m, got {p.tolist()}"
    return None


def _action_fault(a: AtomicAction, graph: InstanceGraph) -> Optional[str]:
    """Why one planner action is invalid, else None."""
    if not a.description.strip():
        return "description: must be a non-empty string"
    if fault := reads_fault(a.kind, *STEP_READS[a.kind],  # `target_instance` as `target`
                            {"target": a.target_instance, "waypoint": a.waypoint}):
        return f"{'target_instance' if fault[0] == 'target' else fault[0]}: {fault[1]}"
    if a.target_instance is not None and a.target_instance not in graph.nodes:
        return f"unknown instance {a.target_instance}"
    if a.waypoint is not None and not np.isfinite(a.waypoint).all():
        return f"waypoint: must be finite, got {a.waypoint.tolist()}"
    if a.waypoint is not None and (fault := bound_fault(a.waypoint)):
        return f"waypoint: {fault}"
    return None


def validate_plan(actions: list[AtomicAction], graph: InstanceGraph) -> None:
    """Raise OracleFailure at the first invalid action, naming its index."""
    if not actions:
        raise OracleFailure("invalid plan: action 0: plan is empty")
    for i, a in enumerate(actions):
        if fault := _action_fault(a, graph):
            raise OracleFailure(f"invalid plan: action {i}: {fault}")


def decompose(oracle: PlannerOracle, instruction: str,
              graph: InstanceGraph) -> list[AtomicAction]:
    if not instruction.strip():
        raise OracleFailure("empty instruction")
    actions = oracle.plan(instruction, graph.graph_summary())
    if actions is None:
        raise OracleFailure(f"planner produced no plan for {instruction!r}")
    validate_plan(actions, graph)
    return actions


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


# as STEP_READS, for each condition kind (a joint kind compares against 0 by default)
MONITOR_READS = {
    ConditionKind.ROBOT_NEAR: (("point", "threshold"), ()),
    ConditionKind.OBJECT_NEAR: (("object", "point", "threshold"), ()),
    ConditionKind.RELATIVE_POSE: (("object", "other", "threshold"), ()),
    ConditionKind.ATTACHED: (("object",), ()),
    ConditionKind.DETACHED: (("object",), ()),
    ConditionKind.JOINT_OPEN: (("object",), ("threshold",)),
    ConditionKind.JOINT_CLOSED: (("object",), ("threshold",)),
}


@dataclass(frozen=True)
class SubtaskMonitor:
    """One entry of a plan step's `monitors`: a goal condition that scores
    that step and counts toward its kind. Its latch is episode state, kept by
    the episode runner."""

    name: str
    kind: ConditionKind
    object: Optional[str] = None
    other: Optional[str] = None
    point: Optional[np.ndarray] = None
    threshold: float = 0.0  # radius / max distance / joint threshold

    def __post_init__(self):
        if fault := reads_fault(self.kind, *MONITOR_READS[self.kind], vars(self)):
            raise ValueError(*fault)


def _object_position(world, oid: str) -> np.ndarray:
    position = world.object_positions.get(oid)
    if position is None:
        raise UnknownObject(f"no object {oid!r} in world state")
    return position


# bound once: on Python 3.11 each `ConditionKind.X` lookup costs about 0.13 µs,
# and a near kind is checked on every tick until its monitor latches
_ROBOT_NEAR, _OBJECT_NEAR = ConditionKind.ROBOT_NEAR, ConditionKind.OBJECT_NEAR


def condition_holds(m: SubtaskMonitor, world) -> bool:
    k = m.kind
    if k is _ROBOT_NEAR or k is _OBJECT_NEAR:
        x, y = (world.base_xy if k is _ROBOT_NEAR
                else _object_position(world, m.object)[:2].tolist())
        px, py = np.asarray(m.point[:2]).tolist()
        return norm(np.array((x - px, y - py))) <= m.threshold
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


def monitor_step(step: int, monitors: list[SubtaskMonitor], world, t: float,
                 latched: dict[tuple[int, int], float]) -> None:
    """Latch at `t` each monitor `j` of plan step `step` not yet latched whose
    condition now holds, keyed `(step, j)`. Monotone: a latch never reverts."""
    for j, m in enumerate(monitors):
        if (step, j) not in latched and condition_holds(m, world):
            latched[step, j] = t


@dataclass
class ActionReport:
    """Completed and total plan steps of one action kind; `rate` follows them."""

    completed: int = 0
    total: int = 0
    rate: float = 0.0

    def add(self, completed: int, total: int) -> None:
        self.completed += completed
        self.total += total
        self.rate = self.completed / self.total if self.total else 0.0


def report(plan: list, outcomes: list,
           latched: dict[tuple[int, int], float]) -> tuple[dict[str, ActionReport], bool]:
    """Completed and total steps of `plan` by kind, and whether every step
    completed. Step `i` completed when `outcomes[i]` succeeded and each of its
    monitors `j` latched (`latched` holds `(i, j)`), so a step without
    monitors is scored by its outcome alone."""
    buckets: dict[str, ActionReport] = {}
    done = [outcome.success and all((i, j) in latched for j in range(len(step.monitors)))
            for i, (step, outcome) in enumerate(zip(plan, outcomes, strict=True))]
    for step, completed in zip(plan, done):
        buckets.setdefault(step.kind.value, ActionReport()).add(int(completed), 1)
    return buckets, all(done)
