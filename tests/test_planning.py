import numpy as np
import pytest

from locoman.errors import OracleFailure, UnknownObject
from locoman.fusion import Detection, InstanceGraph
from locoman.geometry import Pose, vec3
from locoman.harness import EpisodeRunner
from locoman.planning import (ActionKind, AtomicAction, ConditionKind,
                              ScriptedPlanner, SubtaskMonitor, TaskPlan,
                              condition_holds, decompose, monitor_step, report,
                              validate_plan)
from locoman.scenario import scenario_from_dict


def _graph_with_nodes(n):
    g = InstanceGraph(descriptor_dim=4)
    for i in range(n):
        desc = np.zeros(4)
        desc[i % 4] = 1.0
        g.ingest_detection(Detection(label=f"obj{i}", descriptor=desc,
                                     points=np.array([[10.0 * i, 0, 0]])))
    return g


class FakeWorld:
    def __init__(self):
        self.base_pose = Pose(vec3(0, 0, 0.35))
        self.object_poses = {}
        self.attachments = {}
        self.joint_values = {}


class TestValidatePlan:
    def test_valid_plan_passes(self):
        g = _graph_with_nodes(2)
        plan = TaskPlan("do it", [
            AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[0, 0, 0]),
            AtomicAction(ActionKind.PICK, "pick", target_instance=0),
            AtomicAction(ActionKind.PLACE, "place", target_instance=1),
        ])
        assert validate_plan(plan, g) is None

    def test_empty_plan(self):
        problem = validate_plan(TaskPlan("x", []), _graph_with_nodes(1))
        assert problem is not None
        assert "empty" in problem.reason

    def test_navigate_needs_waypoint(self):
        plan = TaskPlan("x", [AtomicAction(ActionKind.NAVIGATE, "go")])
        problem = validate_plan(plan, _graph_with_nodes(1))
        assert problem.action_index == 0
        assert "waypoint" in problem.reason

    def test_drag_needs_waypoint(self):
        plan = TaskPlan("x", [AtomicAction(ActionKind.DRAG, "drag")])
        assert "waypoint" in validate_plan(plan, _graph_with_nodes(1)).reason

    def test_pick_needs_target(self):
        plan = TaskPlan("x", [AtomicAction(ActionKind.PICK, "pick")])
        assert "target" in validate_plan(plan, _graph_with_nodes(1)).reason

    def test_unknown_instance(self):
        plan = TaskPlan("x", [AtomicAction(ActionKind.PICK, "pick",
                                           target_instance=99)])
        problem = validate_plan(plan, _graph_with_nodes(1))
        assert "99" in problem.reason

    def test_reports_first_violation(self):
        plan = TaskPlan("x", [
            AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[0, 0, 0]),
            AtomicAction(ActionKind.PICK, "pick"),
            AtomicAction(ActionKind.PLACE, "place"),
        ])
        assert validate_plan(plan, _graph_with_nodes(1)).action_index == 1


class TestDecompose:
    def test_fixture_lookup(self):
        g = _graph_with_nodes(1)
        planner = ScriptedPlanner({"fetch the cup": TaskPlan("fetch the cup", [
            AtomicAction(ActionKind.NAVIGATE, "approach", waypoint=[1, 0, 0]),
            AtomicAction(ActionKind.PICK, "grasp", target_instance=0),
        ])})
        plan = decompose(planner, "fetch the cup", g)
        assert [a.kind for a in plan.actions] == [ActionKind.NAVIGATE, ActionKind.PICK]

    def test_unknown_instruction_raises(self):
        with pytest.raises(OracleFailure):
            decompose(ScriptedPlanner({}), "do something", _graph_with_nodes(1))

    def test_empty_instruction_raises(self):
        with pytest.raises(OracleFailure):
            decompose(ScriptedPlanner({}), "   ", _graph_with_nodes(1))

    def test_invalid_fixture_plan_raises(self):
        planner = ScriptedPlanner({"x": TaskPlan("x", [
            AtomicAction(ActionKind.PICK, "grasp")])})
        with pytest.raises(OracleFailure):
            decompose(planner, "x", _graph_with_nodes(1))

    def test_missing_description_raises(self):
        planner = ScriptedPlanner({"x": TaskPlan("x", [
            AtomicAction(ActionKind.NAVIGATE, "", waypoint=[0, 0, 0])])})
        with pytest.raises(OracleFailure):
            decompose(planner, "x", _graph_with_nodes(1))


def _cond(kind, **kwargs):
    return SubtaskMonitor("m", kind, 0, **kwargs)


class TestConditions:
    def test_robot_near_uses_xy(self):
        w = FakeWorld()
        cond = _cond(ConditionKind.ROBOT_NEAR, point=(0.1, 0.0, 99.0),
                     threshold=0.2)
        assert condition_holds(cond, w)  # z ignored
        w.base_pose = Pose(vec3(1.0, 0, 0.35))
        assert not condition_holds(cond, w)

    def test_object_near(self):
        w = FakeWorld()
        w.object_poses["cup"] = Pose(vec3(2.0, 0, 0))
        cond = _cond(ConditionKind.OBJECT_NEAR, object="cup",
                     point=(2.1, 0.0, 0.0), threshold=0.2)
        assert condition_holds(cond, w)

    def test_relative_pose_is_3d(self):
        w = FakeWorld()
        w.object_poses["a"] = Pose(vec3(0, 0, 0))
        w.object_poses["b"] = Pose(vec3(0, 0, 0.5))
        cond = _cond(ConditionKind.RELATIVE_POSE, object="a", other="b",
                     threshold=0.4)
        assert not condition_holds(cond, w)  # xy coincide but z separates them

    def test_attached_detached(self):
        w = FakeWorld()
        att = _cond(ConditionKind.ATTACHED, object="cup")
        det = _cond(ConditionKind.DETACHED, object="cup")
        assert not condition_holds(att, w)
        assert condition_holds(det, w)
        w.attachments["cup"] = ("ee", Pose())
        assert condition_holds(att, w)
        assert not condition_holds(det, w)

    def test_joint_thresholds(self):
        w = FakeWorld()
        w.joint_values["drawer"] = 0.3
        assert condition_holds(_cond(ConditionKind.JOINT_OPEN,
                                     object="drawer", threshold=0.25), w)
        assert not condition_holds(_cond(ConditionKind.JOINT_CLOSED,
                                         object="drawer", threshold=0.1), w)

    def test_unknown_object_raises(self):
        w = FakeWorld()
        with pytest.raises(UnknownObject):
            condition_holds(_cond(ConditionKind.OBJECT_NEAR, object="ghost",
                                  point=(0, 0, 0), threshold=1.0), w)

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            _cond(ConditionKind.ROBOT_NEAR, point=(0, 0, 0), threshold=0.0)

    @pytest.mark.parametrize("kind, kwargs, needs", [
        (ConditionKind.ROBOT_NEAR, {"threshold": 1.0}, "a point"),
        (ConditionKind.OBJECT_NEAR, {"object": "cup", "threshold": 1.0}, "a point"),
        (ConditionKind.ATTACHED, {}, "an object"),
        (ConditionKind.JOINT_OPEN, {"threshold": 0.2}, "an object"),
        (ConditionKind.RELATIVE_POSE, {"object": "a", "threshold": 1.0},
         "an other object"),
    ])
    def test_required_fields(self, kind, kwargs, needs):
        with pytest.raises(ValueError, match=f"{kind.value} needs {needs}"):
            _cond(kind, **kwargs)


class TestMonitors:
    def _monitor(self, threshold=0.5, step=0):
        return SubtaskMonitor(name="near_origin", kind=ConditionKind.ROBOT_NEAR,
                              step=step, point=(0, 0, 0), threshold=threshold)

    def test_latches_and_never_reverts(self):
        w = FakeWorld()
        m, latched = self._monitor(), {}
        monitor_step([(0, m)], w, 1.0, latched)
        assert latched == {0: 1.0}
        w.base_pose = Pose(vec3(10, 0, 0.35))
        monitor_step([(0, m)], w, 2.0, latched)
        assert latched == {0: 1.0}  # latched

    def test_stays_unmet_until_condition(self):
        w = FakeWorld()
        w.base_pose = Pose(vec3(10, 0, 0.35))
        m, latched = self._monitor(), {}
        monitor_step([(0, m)], w, 1.0, latched)
        assert latched == {}

    def test_unlatched_until_its_step_runs(self):
        # the robot starts inside `home`, which scores the walk back (step 1):
        # the walk out (step 0) must leave it unlatched
        scenario = scenario_from_dict({
            "name": "out_and_back", "instruction": "walk out and back", "horizon": 30.0,
            "robot_start": {"position": [0.0, 0.0, 0.0]},
            "plan": [{"kind": "navigate", "description": "walk out",
                      "waypoint": [1.5, 0.0, 0.0]},
                     {"kind": "navigate", "description": "walk back",
                      "waypoint": [0.0, 0.0, 0.0]}],
            "monitors": [{"name": "home", "kind": "robot_near", "step": 1,
                          "point": [0.0, 0.0, 0.0], "threshold": 0.5}]})
        runner = EpisodeRunner(scenario)
        trace = runner.run().trace
        first_of_step_1 = next(row[0] for row in trace if row[1] == 1)
        assert runner.latched.keys() == {0}  # `home`, the only monitor
        assert runner.latched[0] > first_of_step_1
        assert {row[1] for row in trace if row[0] == runner.latched[0]} == {1}

    def test_report_buckets_by_action(self):
        done = self._monitor()
        pend = self._monitor(step=2)
        pick = SubtaskMonitor(name="grabbed", kind=ConditionKind.ATTACHED,
                              step=1, object="cup")
        kinds = [ActionKind.NAVIGATE, ActionKind.PICK, ActionKind.NAVIGATE]
        buckets, overall = report([done, pend, pick], kinds, {0: 1.0, 2: 1.0})
        assert buckets["navigate"].completed == 1
        assert buckets["navigate"].total == 2
        assert buckets["navigate"].rate == 0.5
        assert buckets["pick"].rate == 1.0
        assert overall is False

    def test_overall_conjunction(self):
        a = self._monitor()
        _, overall = report([a], [ActionKind.NAVIGATE], {0: 1.0})
        assert overall is True
