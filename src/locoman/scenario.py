"""Scenario bundles: a scene and a scripted plan whose steps hold their own
grounding fixtures and subtask monitors.

Every on-disk record is a frozen dataclass whose fields are its YAML keys (a
step's monitor entry is a `planning.SubtaskMonitor`), decoded and encoded by the
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
from .geometry import norm
from .planning import (SCENE_BOUND, STEP_READS, ActionKind, ConditionKind, SubtaskMonitor,
                       bound_fault, reads_fault)


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
        _nonzero_axes(self)

    def bbox(self, position: Optional[np.ndarray] = None):
        p = self.position if position is None else position
        half = self.size / 2.0
        return p - half, p + half

    def attach_point(self, position: Optional[np.ndarray] = None) -> np.ndarray:
        p = self.position if position is None else position
        return p + self.attach_offset


@dataclass(frozen=True)
class PlanStep:
    """One scripted atomic action; `target` names a scene object. The step
    holds its own grounding fixture and the monitors that score it."""

    kind: ActionKind
    description: str
    target: Optional[str] = None
    waypoint: Optional[np.ndarray] = None
    grounding: Optional[GroundingFixture] = None
    monitors: list[SubtaskMonitor] = field(default_factory=list)

    def __post_init__(self):
        if not self.description.strip():
            raise ValueError("description", "must be a non-empty string")
        if fault := reads_fault(self.kind, *STEP_READS[self.kind], vars(self)):
            raise ValueError(*fault)


@dataclass(frozen=True)
class GroundingFixture:
    """What the grounding oracle reports for one pick step: the detected
    contact point's offset from the true one, and optional axis overrides."""

    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dominant_axis: Optional[np.ndarray] = None
    surface_normal: Optional[np.ndarray] = None

    def __post_init__(self):
        _nonzero_axes(self)


def _nonzero_axes(record) -> None:
    """Reject, at its own field, a `dominant_axis` or `surface_normal` that
    `geometry.unit` cannot normalise: the grasp solver normalises both."""
    for name in ("dominant_axis", "surface_normal"):
        v = getattr(record, name)
        if v is not None and norm(v) == 0.0:
            raise ValueError(name, f"must not be the zero vector, got {v.tolist()}")


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


def scenario_from_dict(data, where: str = "scenario") -> Scenario:
    """`from_dict`, then the checks that span records and the SCENE_BOUND on
    every scene point, drop point and waypoint and on `terrain_height`;
    raises at the first fault."""
    scenario = from_dict(Scenario, data, where)
    plan = list(enumerate(scenario.plan))
    monitors = [(f"plan[{i}].monitors[{j}]", m)
                for i, step in plan for j, m in enumerate(step.monitors)]
    ids = [obj.id for obj in scenario.objects]
    jointed = {obj.id for obj in scenario.objects if obj.joint is not None}
    draggable = any(obj.type == "draggable" for obj in scenario.objects)
    refs = [(f"plan[{i}].target", step.target) for i, step in plan]
    refs += [(f"{at}.{key}", getattr(m, key))
             for at, m in monitors for key in ("object", "other")]
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
    faults += [(f"{at}.object", f"{m.kind.value} needs an object with a joint")
               for at, m in monitors if m.object not in jointed
               and m.kind in (ConditionKind.JOINT_OPEN, ConditionKind.JOINT_CLOSED)]
    points = [("robot_start.position", scenario.robot_start.position)]
    points += [(f"static_obstacles[{i}].{end}", getattr(box, end))
               for i, box in enumerate(scenario.static_obstacles) for end in ("min", "max")]
    points += [(f"objects[{i}].position", obj.position)
               for i, obj in enumerate(scenario.objects)]
    points += [(f"plan[{i}].waypoint", step.waypoint) for i, step in plan
               if step.waypoint is not None]
    faults += [(loc, fault) for loc, p in points if (fault := bound_fault(p))]
    # the base stands on the terrain: far past the bound (about 1e154 m) the
    # grasp camera's distance to the base overflows, and `run` cannot finish
    if not abs(scenario.terrain_height) <= SCENE_BOUND:
        faults.append(("terrain_height", f"|terrain_height| must be <= {SCENE_BOUND:g} m, "
                                         f"got {scenario.terrain_height!r}"))
    # `place` drops onto a container at its position plus `container_offset`
    faults += [(f"objects[{i}].container_offset", f"position + container_offset: {fault}")
               for i, obj in enumerate(scenario.objects) if obj.container_offset is not None
               and (fault := bound_fault(obj.position + obj.container_offset))]
    if faults:
        raise ValidationError("{}.{}: {}".format(where, *faults[0]))
    return scenario


def load_scenario(path) -> Scenario:
    data = read_file(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: scenario must be a mapping")
    return scenario_from_dict(data, where=str(path))
