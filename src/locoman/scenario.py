"""Scenario bundles: a scene, a scripted plan, grounding fixtures and subtask
monitors.

Every on-disk record is a frozen dataclass whose fields are its YAML keys (a
monitor entry is a `planning.SubtaskMonitor`), decoded and encoded by the
config codec (`config.from_dict`, `config.to_dict`). A loaded scenario is
one value that every episode of a run shares; episode state lives in
`harness.EpisodeRunner`. A record checks itself in `__post_init__`;
`scenario_from_dict` adds the checks that span records, so that `validate`
accepts only what `run` can execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import from_dict, read_file
from .errors import ParseError, ValidationError
from .geometry import Pose
from .planning import (NEEDS_TARGET, NEEDS_WAYPOINT, ActionKind, ConditionKind,
                       SubtaskMonitor)


@dataclass(frozen=True)
class RobotStart:
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0

    def __post_init__(self):
        z = float(self.position[2])
        if z != 0.0:
            raise ValueError("position[2]", f"must be 0, got {z!r}: the base stands "
                                            "on the terrain")


@dataclass(frozen=True)
class Box:
    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        # an inverted box draws no grid cell, yet the goal search avoids it
        if (self.min > self.max).any():
            raise ValueError("max", f"must be >= min on every axis, got {self.max.tolist()} "
                                    f"against {self.min.tolist()}")


@dataclass(frozen=True)
class Joint:
    value: float
    min: float
    max: float
    goal: float

    def __post_init__(self):
        if self.min > self.max:
            raise ValueError("max", f"must be >= min {self.min!r}, got {self.max!r}")
        for name in ("value", "goal"):
            v = getattr(self, name)
            if not self.min <= v <= self.max:
                raise ValueError(name, f"must lie in [min, max] = [{self.min!r}, "
                                       f"{self.max!r}], got {v!r}")


@dataclass(frozen=True)
class SceneObject:
    id: str
    position: np.ndarray
    type: str = "rigid"
    label: Optional[str] = None  # defaults to the id
    yaw: float = 0.0
    size: np.ndarray = field(default_factory=lambda: np.array([0.1, 0.1, 0.1]))
    attach_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dominant_axis: Optional[np.ndarray] = None
    surface_normal: Optional[np.ndarray] = None
    container_offset: Optional[np.ndarray] = None
    joint: Optional[Joint] = None  # required for articulated objects

    def __post_init__(self):
        if not self.id:
            raise ValueError("id", "must be a non-empty string")
        types = ["rigid", "container", "articulated", "draggable"]
        if self.type not in types:
            raise ValueError("type", f"{self.type!r} not one of {types}")
        if self.type == "articulated" and self.joint is None:
            raise ValueError("joint", "articulated object needs a joint block")
        if (self.size < 0).any():
            raise ValueError("size", f"must have no negative component, got {self.size.tolist()}")
        if self.label is None:
            object.__setattr__(self, "label", self.id)

    def pose(self) -> Pose:
        return Pose.from_xy_yaw(self.position[0], self.position[1], self.yaw,
                                z=self.position[2])

    def bbox(self, position: Optional[np.ndarray] = None):
        p = self.position if position is None else position
        half = self.size / 2.0
        return p - half, p + half

    def attach_point(self, position: Optional[np.ndarray] = None) -> np.ndarray:
        p = self.position if position is None else position
        return p + self.attach_offset


@dataclass(frozen=True)
class PlanStep:
    """One scripted atomic action; `target` names a scene object."""

    kind: ActionKind
    description: str
    target: Optional[str] = None
    waypoint: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.description.strip():
            raise ValueError("description", "must be a non-empty string")
        if self.target is None and self.kind in NEEDS_TARGET:
            raise ValueError("target", f"{self.kind.value} needs a target")
        if self.waypoint is None and self.kind in NEEDS_WAYPOINT:
            raise ValueError("waypoint", f"{self.kind.value} needs a waypoint")


@dataclass(frozen=True)
class GroundingFixture:
    """What the grounding oracle reports for one plan step: the detected
    contact point's offset from the true one, and optional axis overrides."""

    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dominant_axis: Optional[np.ndarray] = None
    surface_normal: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Scenario:
    name: str
    instruction: str
    horizon: float
    robot_start: RobotStart
    seed: int = 0
    terrain_height: float = 0.0
    static_obstacles: list[Box] = field(default_factory=list)
    objects: list[SceneObject] = field(default_factory=list)
    plan: list[PlanStep] = field(default_factory=list)
    grounding: dict[int, GroundingFixture] = field(default_factory=dict)  # by plan index
    monitors: list[SubtaskMonitor] = field(default_factory=list)

    def __post_init__(self):
        # `run` writes a scenario's episodes to `<out>/<name>/`, beside its own files
        if self.name in ("", ".", "..", "aggregate.json", "manifest.json") \
                or any(c in self.name for c in "/\\\0"):
            raise ValueError("name", f"must be one plain path component and not a run "
                                     f"file's name, got {self.name!r}")
        if not self.instruction.strip():
            raise ValueError("instruction", "must be a non-empty string")
        if self.horizon <= 0:
            raise ValueError("horizon", "must be > 0")
        if self.seed < 0:
            raise ValueError("seed", "must be >= 0")

    def height_at(self, x: float, y: float) -> float:
        return self.terrain_height


def scenario_from_dict(data, where: str = "scenario") -> Scenario:
    """`from_dict`, then the checks that span records; raises at the first fault."""
    scenario = from_dict(Scenario, data, where)
    plan, monitors = list(enumerate(scenario.plan)), list(enumerate(scenario.monitors))
    ids = [obj.id for obj in scenario.objects]
    jointed = {obj.id for obj in scenario.objects if obj.joint is not None}
    draggable = any(obj.type == "draggable" for obj in scenario.objects)
    refs = [(f"plan[{i}].target", step.target) for i, step in plan]
    refs += [(f"monitors[{i}].{key}", getattr(m, key))
             for i, m in monitors for key in ("object", "other")]
    faults = [(f"objects[{i}].id", f"duplicate id {oid!r}")
              for i, oid in enumerate(ids) if oid in ids[:i]]
    faults += [(loc, f"unknown object {ref!r}") for loc, ref in refs
               if ref is not None and ref not in ids]
    faults += [(f"plan[{i}].target", "push_pull needs an object with a joint")
               for i, step in plan
               if step.kind is ActionKind.PUSH_PULL and step.target not in jointed]
    faults += [(f"plan[{i}].target", "a drag without a target needs a draggable object")
               for i, step in plan
               if step.kind is ActionKind.DRAG and step.target is None and not draggable]
    # a planless scene still loads (for its grid); `run` rejects it whole
    faults += [(f"monitors[{i}].step", f"{m.step} is not one of the plan's {len(plan)} steps")
               for i, m in monitors if plan and not 0 <= m.step < len(plan)]
    faults += [(f"monitors[{i}].object", f"{m.kind.value} needs an object with a joint")
               for i, m in monitors if m.object not in jointed
               and m.kind in (ConditionKind.JOINT_OPEN, ConditionKind.JOINT_CLOSED)]
    # only a pick grounds its target, so any other key would be ignored
    picks = [i for i, step in plan if step.kind is ActionKind.PICK]
    faults += [(f"grounding.{k}", f"is not a pick step; the plan's pick steps are {picks}")
               for k in scenario.grounding if plan and k not in picks]
    if faults:
        raise ValidationError("{}.{}: {}".format(where, *faults[0]))
    return scenario


def load_scenario(path) -> Scenario:
    data = read_file(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: scenario must be a mapping")
    return scenario_from_dict(data, where=str(path))
