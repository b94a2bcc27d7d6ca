import numpy as np
import pytest

from locoman.errors import OracleFailure, UnknownObject
from locoman.fusion import Detection, InstanceGraph
from locoman.geometry import Pose, vec3
from locoman.harness import ActionOutcome, EpisodeRunner
from locoman.planning import (ActionKind, AtomicAction, ConditionKind,
                              ScriptedPlanner, SubtaskMonitor,
                              condition_holds, decompose, monitor_step, report,
                              validate_plan)
from locoman.scenario import PlanStep, scenario_from_dict


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
        self.object_positions = {}
        self.attachments = {}
        self.joint_values = {}

    @property
    def base_xy(self):
        return tuple(self.base_pose.position[:2].tolist())


class TestValidatePlan:
    def test_valid_plan_passes(self):
        g = _graph_with_nodes(2)
        plan = [
            AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[0, 0, 0]),
            AtomicAction(ActionKind.PICK, "pick", target_instance=0),
            AtomicAction(ActionKind.PLACE, "place", target_instance=1),
        ]
        assert validate_plan(plan, g) is None

    def test_empty_plan(self):
        with pytest.raises(OracleFailure, match="^invalid plan: action 0: plan is empty$"):
            validate_plan([], _graph_with_nodes(1))

    def test_navigate_needs_waypoint(self):
        plan = [AtomicAction(ActionKind.NAVIGATE, "go")]
        with pytest.raises(OracleFailure,
                           match="^invalid plan: action 0: waypoint: navigate needs a waypoint$"):
            validate_plan(plan, _graph_with_nodes(1))

    def test_drag_needs_waypoint(self):
        plan = [AtomicAction(ActionKind.DRAG, "drag")]
        with pytest.raises(OracleFailure,
                           match="^invalid plan: action 0: waypoint: drag needs a waypoint$"):
            validate_plan(plan, _graph_with_nodes(1))

    def test_pick_needs_target(self):
        plan = [AtomicAction(ActionKind.PICK, "pick")]
        with pytest.raises(OracleFailure,
                           match="^invalid plan: action 0: target_instance: pick needs a target$"):
            validate_plan(plan, _graph_with_nodes(1))

    def test_unknown_instance(self):
        plan = [AtomicAction(ActionKind.PICK, "pick", target_instance=99)]
        with pytest.raises(OracleFailure, match="^invalid plan: action 0: unknown instance 99$"):
            validate_plan(plan, _graph_with_nodes(1))

    def test_reports_first_violation(self):
        plan = [
            AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[0, 0, 0]),
            AtomicAction(ActionKind.PICK, "pick"),
            AtomicAction(ActionKind.PLACE, "place"),
        ]
        with pytest.raises(OracleFailure, match="^invalid plan: action 1: "):
            validate_plan(plan, _graph_with_nodes(1))

    def test_nonfinite_waypoint(self):
        for bad in (np.nan, np.inf, -np.inf):
            plan = [AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[1.0, bad, 0.0])]
            with pytest.raises(OracleFailure) as exc:
                validate_plan(plan, _graph_with_nodes(1))
            assert str(exc.value) == (f"invalid plan: action 0: waypoint: must be finite, "
                                      f"got {[1.0, bad, 0.0]}")

    def test_waypoint_past_scene_bound(self):
        def plan(x, y):
            return [AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[0.0, 0.0, 0.0]),
                    AtomicAction(ActionKind.DRAG, "drag", waypoint=[x, y, 0.0])]
        assert validate_plan(plan(100.0, -100.0), _graph_with_nodes(1)) is None
        for x, y in ((100.5, 0.0), (0.0, -100.5), (1e6, 0.0)):
            with pytest.raises(OracleFailure) as exc:
                validate_plan(plan(x, y), _graph_with_nodes(1))
            assert str(exc.value) == (f"invalid plan: action 1: waypoint: |x| and |y| "
                                      f"must be <= 100 m, got {[x, y, 0.0]}")


# the subsets of {target, waypoint} each action kind accepts
ACCEPTED_FIELDS = {
    ActionKind.NAVIGATE: [{"waypoint"}],
    ActionKind.PICK: [{"target"}],
    ActionKind.PLACE: [{"target"}],
    ActionKind.PUSH_PULL: [{"target"}],
    ActionKind.DRAG: [{"waypoint"}, {"target", "waypoint"}],
}


@pytest.mark.parametrize("fields", [(), ("target",), ("waypoint",), ("target", "waypoint")],
                         ids=["none", "target", "waypoint", "both"])
@pytest.mark.parametrize("kind", list(ActionKind), ids=lambda k: k.value)
def test_step_and_action_share_reads_rule(kind, fields):
    """A scenario step and a planner's action with the same fields set are
    accepted alike, and rejected at the same field with the same message."""
    try:
        PlanStep(kind, "do it", target="obj0" if "target" in fields else None,
                 waypoint=np.array([1.0, 0.0, 0.0]) if "waypoint" in fields else None)
        step_fault = None
    except ValueError as exc:
        step_fault = exc.args
    action = AtomicAction(kind, "do it", target_instance=0 if "target" in fields else None,
                          waypoint=[1.0, 0.0, 0.0] if "waypoint" in fields else None)
    try:
        validate_plan([action], _graph_with_nodes(1))
        problem = None
    except OracleFailure as exc:
        problem = str(exc)
    assert (step_fault is None) == (set(fields) in ACCEPTED_FIELDS[kind])
    assert (problem is None) == (step_fault is None)
    if step_fault is not None:
        name, message = step_fault
        name = "target_instance" if name == "target" else name
        assert problem == f"invalid plan: action 0: {name}: {message}"


class TestDecompose:
    def test_fixture_lookup(self):
        g = _graph_with_nodes(1)
        planner = ScriptedPlanner({"fetch the cup": [
            AtomicAction(ActionKind.NAVIGATE, "approach", waypoint=[1, 0, 0]),
            AtomicAction(ActionKind.PICK, "grasp", target_instance=0),
        ]})
        plan = decompose(planner, "fetch the cup", g)
        assert [a.kind for a in plan] == [ActionKind.NAVIGATE, ActionKind.PICK]

    def test_unknown_instruction_raises(self):
        with pytest.raises(OracleFailure):
            decompose(ScriptedPlanner({}), "do something", _graph_with_nodes(1))

    def test_empty_instruction_raises(self):
        with pytest.raises(OracleFailure):
            decompose(ScriptedPlanner({}), "   ", _graph_with_nodes(1))

    def test_invalid_fixture_plan_raises(self):
        planner = ScriptedPlanner({"x": [AtomicAction(ActionKind.PICK, "grasp")]})
        with pytest.raises(OracleFailure):
            decompose(planner, "x", _graph_with_nodes(1))

    def test_field_its_kind_never_reads_raises(self):
        # a planner's navigate that names a target, and pick that names a waypoint
        planner = ScriptedPlanner({"x": [
            AtomicAction(ActionKind.NAVIGATE, "go", target_instance=0, waypoint=[1, 0, 0]),
            AtomicAction(ActionKind.PICK, "p", target_instance=0, waypoint=[5, 5, 0])]})
        with pytest.raises(OracleFailure,
                           match="^invalid plan: action 0: target_instance: navigate never reads"):
            decompose(planner, "x", _graph_with_nodes(1))

    @pytest.mark.parametrize("actions, message", [
        ([], "invalid plan: action 0: plan is empty"),
        ([AtomicAction(ActionKind.NAVIGATE, "go", target_instance=0, waypoint=[1, 0, 0])],
         "invalid plan: action 0: target_instance: navigate never reads it"),
        ([AtomicAction(ActionKind.NAVIGATE, "go", waypoint=[1, 0, 0]),
          AtomicAction(ActionKind.PICK, "grasp", target_instance=7)],
         "invalid plan: action 1: unknown instance 7"),
    ], ids=["empty", "navigate_target", "unknown_instance"])
    def test_any_planner_returns_a_list(self, actions, message):
        # a planner is any object whose `plan` returns a list of actions
        class ListPlanner:
            def plan(self, instruction, graph_summary):
                return actions

        with pytest.raises(OracleFailure) as exc:
            decompose(ListPlanner(), "x", _graph_with_nodes(1))
        assert str(exc.value) == message

    def test_missing_description_raises(self):
        planner = ScriptedPlanner({"x": [
            AtomicAction(ActionKind.NAVIGATE, "", waypoint=[0, 0, 0])]})
        with pytest.raises(OracleFailure):
            decompose(planner, "x", _graph_with_nodes(1))


def _cond(kind, **kwargs):
    return SubtaskMonitor("m", kind, **kwargs)


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
        w.object_positions["cup"] = vec3(2.0, 0, 0)
        cond = _cond(ConditionKind.OBJECT_NEAR, object="cup",
                     point=(2.1, 0.0, 0.0), threshold=0.2)
        assert condition_holds(cond, w)

    def test_relative_pose_is_3d(self):
        w = FakeWorld()
        w.object_positions["a"] = vec3(0, 0, 0)
        w.object_positions["b"] = vec3(0, 0, 0.5)
        cond = _cond(ConditionKind.RELATIVE_POSE, object="a", other="b",
                     threshold=0.4)
        assert not condition_holds(cond, w)  # xy coincide but z separates them

    def test_attached_detached(self):
        w = FakeWorld()
        att = _cond(ConditionKind.ATTACHED, object="cup")
        det = _cond(ConditionKind.DETACHED, object="cup")
        assert not condition_holds(att, w)
        assert condition_holds(det, w)
        w.attachments["cup"] = ("ee", vec3(0, 0, 0))
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
    def _monitor(self, threshold=0.5):
        return SubtaskMonitor(name="near_origin", kind=ConditionKind.ROBOT_NEAR,
                              point=(0, 0, 0), threshold=threshold)

    def test_latches_and_never_reverts(self):
        w = FakeWorld()
        m, latched = self._monitor(), {}
        monitor_step(0, [m], w, 1.0, latched)
        assert latched == {(0, 0): 1.0}
        w.base_pose = Pose(vec3(10, 0, 0.35))
        monitor_step(0, [m], w, 2.0, latched)
        assert latched == {(0, 0): 1.0}  # latched

    def test_stays_unmet_until_condition(self):
        w = FakeWorld()
        w.base_pose = Pose(vec3(10, 0, 0.35))
        m, latched = self._monitor(), {}
        monitor_step(0, [m], w, 1.0, latched)
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
                      "waypoint": [0.0, 0.0, 0.0],
                      "monitors": [{"name": "home", "kind": "robot_near",
                                    "point": [0.0, 0.0, 0.0], "threshold": 0.5}]}]})
        runner = EpisodeRunner(scenario)
        trace = runner.run().trace
        first_of_step_1 = next(row[0] for row in trace if row[1] == 1)
        assert runner.latched.keys() == {(1, 0)}  # `home`, the only monitor
        assert runner.latched[1, 0] > first_of_step_1
        assert {row[1] for row in trace if row[0] == runner.latched[1, 0]} == {1}

    @staticmethod
    def _walk(*monitors):
        return PlanStep(ActionKind.NAVIGATE, "walk", waypoint=np.zeros(3),
                        monitors=list(monitors))

    def test_report_buckets_by_action(self):
        pick = SubtaskMonitor(name="grabbed", kind=ConditionKind.ATTACHED, object="cup")
        plan = [self._walk(self._monitor()),
                PlanStep(ActionKind.PICK, "grab", target="cup", monitors=[pick]),
                self._walk(self._monitor())]
        buckets, overall = report(plan, self._outcomes(True, True, True),
                                  {(0, 0): 1.0, (1, 0): 1.0})
        assert buckets["navigate"].completed == 1
        assert buckets["navigate"].total == 2
        assert buckets["navigate"].rate == 0.5
        assert buckets["pick"].rate == 1.0
        assert overall is False

    def test_overall_conjunction(self):
        _, overall = report([self._walk(self._monitor())], self._outcomes(True),
                            {(0, 0): 1.0})
        assert overall is True

    @staticmethod
    def _outcomes(*success):
        return [ActionOutcome(i, "navigate", ok) for i, ok in enumerate(success)]

    @pytest.mark.parametrize("monitors, success, latched, completed", [
        ([0, 0], [False, False], {}, 0),   # no monitors, failed actions
        ([1], [False], {(0, 0): 1.0}, 0),  # failed action, its monitor latched
        ([1], [True], {}, 0),              # succeeded action, monitor unlatched
        ([0], [True], {}, 1),              # succeeded action, no monitors
        ([2, 1], [True, True], {(0, 0): 1.0, (1, 0): 1.0}, 1),  # one of two unlatched
        ([2], [True], {(0, 0): 1.0, (0, 1): 1.0}, 1),
    ], ids=["failed_no_monitors", "failed_latched", "unlatched", "no_monitors",
            "one_of_two_unlatched", "all_latched"])
    def test_report_scores_outcome_and_monitors(self, monitors, success, latched,
                                                completed):
        plan = [self._walk(*[self._monitor()] * k) for k in monitors]
        buckets, overall = report(plan, self._outcomes(*success), latched)
        assert (buckets["navigate"].completed, buckets["navigate"].total) == (
            completed, len(plan))
        assert overall is (completed == len(plan))
