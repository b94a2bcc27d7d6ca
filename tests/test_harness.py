import ast
import copy
import csv
import hashlib
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from locoman import geometry, harness, planning
from locoman.cli import _load_runnable
from locoman.config import Config, TrackingConfig, to_dict
from locoman.errors import LocomanError, ParseError, UsageError, ValidationError
from locoman.geometry import NORM_BAND, Pose, quat_geodesic_distance, vec3
from locoman.harness import (BASE_STAND_HEIGHT, TRACE_COLUMNS, EpisodeRunner,
                             LocomotionCommand, aggregate, build_instance_graph,
                             build_occupancy_grid, make_rng, make_world, run_episode,
                             stage1_terms, step, write_report, write_trace_csv)
from locoman.navgrid import FREE, OCCUPIED, OccupancyGrid, footprint_clear, plan_path
from locoman.rewards import ContactTimeline
from locoman.scenario import load_scenario, scenario_from_dict
from locoman.training import wrap_angle

import oracles

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_scenario_dict(**overrides):
    data = {
        "name": "mini",
        "instruction": "go to the marker",
        "horizon": 30.0,
        "seed": 1,
        "robot_start": {"position": [0.0, 0.0, 0.0], "yaw": 0.0},
        "objects": [
            {"id": "marker", "label": "marker", "type": "rigid",
             "position": [1.5, 0.0, 0.05], "size": [0.05, 0.05, 0.05]},
        ],
        "plan": [
            {"kind": "navigate", "description": "walk to the marker",
             "waypoint": [1.5, 0.0, 0.05],
             "monitors": [{"name": "arrived", "kind": "robot_near",
                           "point": [1.5, 0.0, 0.0], "threshold": 1.0}]},
        ],
    }
    data.update(overrides)
    return data


class TestScenarioSchema:
    def test_load_bundled_scenario(self):
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        assert s.name == "cart_delivery"
        assert len(s.plan) == 6
        assert [len(step.monitors) for step in s.plan] == [1] * 6
        assert [step.grounding is not None for step in s.plan] == [
            False, True, False, False, False, False]

    def test_round_trip(self):
        # every bundled scenario: its steps' fixtures and monitors included
        for s in (scenario_from_dict(minimal_scenario_dict()),
                  *map(load_scenario, sorted(SCENARIO_DIR.glob("*.yaml")))):
            back = scenario_from_dict(yaml.safe_load(yaml.safe_dump(to_dict(s))))
            assert to_dict(back) == to_dict(s)

    def test_missing_field_located(self):
        data = minimal_scenario_dict()
        del data["horizon"]
        with pytest.raises(ValidationError, match="horizon"):
            scenario_from_dict(data)

    def test_bad_object_type_located(self):
        data = minimal_scenario_dict()
        data["objects"][0]["type"] = "liquid"
        with pytest.raises(ValidationError, match=r"objects\[0\].type"):
            scenario_from_dict(data)

    def test_duplicate_id_rejected(self):
        data = minimal_scenario_dict()
        data["objects"].append(dict(data["objects"][0]))
        with pytest.raises(ValidationError, match="duplicate"):
            scenario_from_dict(data)

    def test_plan_target_must_exist(self):
        data = minimal_scenario_dict()
        data["plan"].append({"kind": "pick", "description": "grab",
                             "target": "ghost"})
        with pytest.raises(ValidationError, match="ghost"):
            scenario_from_dict(data)

    def test_planless_scene_loads_but_cannot_run(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(yaml.safe_dump(minimal_scenario_dict(plan=[])))
        assert load_scenario(path).plan == []
        with pytest.raises(ValidationError, match="plan is empty"):
            _load_runnable(path)

    def test_scene_only_needs_header_and_start(self):
        data = {k: v for k, v in minimal_scenario_dict().items()
                if k in ("name", "instruction", "horizon", "robot_start")}
        s = scenario_from_dict(data)
        assert (s.seed, s.objects, s.plan) == (0, [], [])

    def test_label_defaults_to_id(self):
        data = minimal_scenario_dict()
        del data["objects"][0]["label"]
        assert scenario_from_dict(data).objects[0].label == "marker"

    def test_monitor_object_must_exist(self):
        data = minimal_scenario_dict()
        data["plan"][0]["monitors"].append({"name": "m", "kind": "attached",
                                            "object": "ghost"})
        with pytest.raises(ValidationError, match=r"plan\[0\].monitors\[1\].object"):
            scenario_from_dict(data)

    def test_articulated_needs_joint(self):
        data = minimal_scenario_dict()
        data["objects"][0]["type"] = "articulated"
        with pytest.raises(ValidationError, match="joint"):
            scenario_from_dict(data)

    def test_parse_error_on_non_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ParseError):
            load_scenario(path)


def _paths(data, prefix=()):
    """Every key path into nested YAML data, with the value it leads to."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# values of every YAML type, swapped in for whatever a path held
OTHER_VALUES = ["x", True, None, 7, 0.5, [], [1.0, 2.0], {}, {"a": 1}]
BUNDLED = yaml.safe_load((SCENARIO_DIR / "cart_delivery.yaml").read_text())
ALL_PATHS = list(_paths(BUNDLED))
# the paths each mutation applies to
TARGETS = {
    "drop": [p for p, _ in ALL_PATHS],
    "retype": [p for p, _ in ALL_PATHS],
    "shorten": [p for p, v in ALL_PATHS if isinstance(v, list) and v],
    "unknown_key": [()] + [p for p, v in ALL_PATHS if isinstance(v, dict)],
}
LOCATED = re.compile(r"^s((\.[\w-]+)|(\[\d+\]))*: ")


@st.composite
def mutated_scenarios(draw):
    data = yaml.safe_load(yaml.safe_dump(BUNDLED))
    for how in draw(st.lists(st.sampled_from(sorted(TARGETS)), min_size=1, max_size=2)):
        path = draw(st.sampled_from(TARGETS[how]))
        try:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            value = parent[path[-1]] if path else data
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped the path
        if how == "drop":
            del parent[path[-1]]
        elif how == "retype":
            parent[path[-1]] = draw(st.sampled_from(
                [v for v in OTHER_VALUES if type(v) is not type(value)]))
        elif how == "shorten" and isinstance(value, list) and value:
            value.pop()
        elif how == "unknown_key" and isinstance(value, dict):
            value["colour"] = "red"
    return data


class TestScenarioProperty:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(mutated_scenarios())
    def test_mutated_scenario_rejected_located_or_runs(self, data):
        try:
            scenario_from_dict(data, where="s")
        except ValidationError as exc:
            assert LOCATED.match(str(exc)), str(exc)
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.yaml"
            path.write_text(yaml.safe_dump(data))
            try:
                scenario, _ = _load_runnable(path)
            except ValidationError:
                return
        try:
            run_episode(scenario, master_seed=0)
        except LocomanError:
            pass


def test_wrap_matches_wrap_angle():
    # training.wrap_angle is the reference: the same value and sign of zero
    values = [np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 0.0, -0.0, 1e-300, -1e-300,
              *np.random.default_rng(4).uniform(-20.0, 20.0, 20_000).tolist()]
    for a in values:
        got, want = harness._wrap(a), float(wrap_angle(a))
        assert type(got) is float
        assert (got, np.copysign(1.0, got)) == (want, np.copysign(1.0, want)), a


class TestWorldStep:
    def _world(self):
        return make_world(scenario_from_dict(minimal_scenario_dict()))

    def _scenario(self):
        return scenario_from_dict(minimal_scenario_dict())

    def test_base_starts_at_stand_height(self):
        w = self._world()
        assert w.base_pose.position[2] == BASE_STAND_HEIGHT

    def test_zero_lag_tracks_instantly(self):
        s = self._scenario()
        w = make_world(s)
        step(w, LocomotionCommand(0.5, 0.0, 0.0), None, 0.02,
             TrackingConfig(tau_base=0.0), make_rng(0), s)
        assert np.allclose(w.base_vel, [0.5, 0.0, 0.0])
        assert w.base_pose.position[0] == pytest.approx(0.5 * 0.02)

    def test_first_order_lag_closed_form(self):
        s = self._scenario()
        w = make_world(s)
        tau, dt = 0.2, 0.02
        step(w, LocomotionCommand(1.0, 0.0, 0.0), None, dt,
             TrackingConfig(tau_base=tau), make_rng(0), s)
        assert w.base_vel[0] == pytest.approx(1.0 - np.exp(-dt / tau), abs=1e-12)

    def test_unicycle_heading(self):
        s = self._scenario()
        w = make_world(s)
        tracking = TrackingConfig()
        # face +y, drive forward: position should move along +y
        for _ in range(100):
            step(w, LocomotionCommand(0.0, 0.0, np.pi / 2), None, 0.01,
                 tracking, make_rng(0), s)
        assert w.base_pose.yaw() == pytest.approx(np.pi / 2, abs=1e-6)
        for _ in range(100):
            step(w, LocomotionCommand(0.5, 0.0, 0.0), None, 0.01,
                 tracking, make_rng(0), s)
        assert w.base_pose.position[1] == pytest.approx(0.5, abs=1e-6)
        assert abs(w.base_pose.position[0]) < 1e-6

    def test_ee_exponential_convergence(self):
        s = self._scenario()
        w = make_world(s)
        target = Pose(vec3(1.0, 0.5, 0.8))
        start_err = np.linalg.norm(w.ee_pose.position - target.position)
        rate, dt = 8.0, 0.02
        step(w, LocomotionCommand(0, 0, 0), target, dt,
             TrackingConfig(ee_rate=rate), make_rng(0), s)
        err = np.linalg.norm(w.ee_pose.position - target.position)
        assert err == pytest.approx(start_err * np.exp(-rate * dt), abs=1e-9)

    def test_attachment_follows_carrier(self):
        s = self._scenario()
        w = make_world(s)
        rel = w.ee_pose.inverse().transform(w.object_positions["marker"])
        w.attachments["marker"] = ("ee", rel)
        target = Pose(vec3(0.5, 0.5, 0.9))
        for _ in range(200):
            step(w, LocomotionCommand(0, 0, 0), target, 0.02,
                 TrackingConfig(), make_rng(0), s)
        carried = w.object_positions["marker"]
        expected = w.ee_pose.transform(rel)
        assert np.allclose(carried, expected, atol=1e-9)

    def test_content_rides_with_its_container(self):
        s = scenario_from_dict(minimal_scenario_dict(objects=[
            {"id": "marker", "label": "marker", "type": "rigid",
             "position": [1.5, 0.0, 0.05], "size": [0.05, 0.05, 0.05]},
            {"id": "crate", "label": "crate", "type": "draggable",
             "position": [0.6, 0.0, 0.2], "size": [0.4, 0.4, 0.4]}]))
        w = make_world(s)
        w.attachments["crate"] = ("base", w.base_pose.inverse().transform(vec3(0.6, 0.0, 0.2)))
        offset = vec3(0.0, 0.0, 0.25)
        w.contents["marker"] = ("crate", offset)
        for _ in range(50):
            step(w, LocomotionCommand(0.5, 0.0, 0.3), None, 0.02,
                 TrackingConfig(), make_rng(0), s)
            assert np.array_equal(w.object_positions["marker"],
                                  w.object_positions["crate"] + offset)
        left = w.object_positions["marker"].copy()
        del w.contents["marker"]
        for _ in range(50):
            step(w, LocomotionCommand(0.5, 0.0, 0.3), None, 0.02,
                 TrackingConfig(), make_rng(0), s)
        assert np.array_equal(w.object_positions["marker"], left)
        assert not np.allclose(w.object_positions["crate"][:2], left[:2])

    @staticmethod
    def _drive_forward(s, grid, ticks=500):
        """Command 1 m/s forward; returns the world and the first tick the
        base did not move."""
        w = make_world(s)
        halted_at = None
        for k in range(ticks):
            before = w.base_pose.position.copy()
            step(w, LocomotionCommand(1.0, 0, 0), None, 0.02,
                 TrackingConfig(), make_rng(0), s, grid=grid)
            if halted_at is None and np.array_equal(before, w.base_pose.position):
                halted_at = k
        return w, halted_at

    def test_collision_halts_base(self):
        data = minimal_scenario_dict(
            static_obstacles=[{"min": [0.4, -0.5, 0.0], "max": [1.0, 0.5, 0.5]}])
        s = scenario_from_dict(data)
        w, halted_at = self._drive_forward(s, build_occupancy_grid(s))
        # stops at the inflated obstacle face instead of passing through
        assert halted_at == 7
        assert w.base_pose.position.tolist() == [0.14, 0.0, 0.35]
        assert np.array_equal(w.base_vel, np.zeros(3))
        assert w.t == 9.999999999999876

    def test_collision_halts_base_at_grid_edge(self):
        # the footprint window hangs off the grid's left edge
        s = scenario_from_dict(minimal_scenario_dict(
            robot_start={"position": [1.0, 1.0, 0.0], "yaw": float(np.pi)}))
        grid = OccupancyGrid(resolution=0.1, width=20, height=20)
        grid.cells[:] = FREE
        grid.cells[:, 0] = OCCUPIED
        w, halted_at = self._drive_forward(s, grid)
        assert halted_at == 32
        assert w.base_pose.position.tolist() == [0.35999999999999943, 1.0, 0.35]
        assert np.array_equal(w.base_vel, np.zeros(3))
        assert w.t == 9.999999999999876

    def test_noise_is_seeded(self):
        s = self._scenario()
        tracking = TrackingConfig(noise_pos=0.01, noise_ori=0.01)
        target = Pose(vec3(0.5, 0.0, 0.6))

        def run(seed):
            w = make_world(s)
            rng = make_rng(seed)
            for _ in range(50):
                step(w, LocomotionCommand(0, 0, 0), target, 0.02, tracking, rng, s)
            return w.ee_pose

        a, b, c = run(1), run(1), run(2)
        assert np.array_equal(a.position, b.position)
        assert not np.array_equal(a.position, c.position)


def _bits(v):
    """A value's exact bits, type by type: a float's IEEE bytes (so -0.0 and
    0.0 differ), an array's dtype, shape and bytes, a Pose's two arrays."""
    if isinstance(v, Pose):
        return _bits(v.position), _bits(v.orientation)
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, tuple):
        return tuple(_bits(x) for x in v)
    return type(v).__name__, struct.pack("<d", v)


class Lockstep:
    """Steps `oracles.pose_step` on an `oracles.PoseWorld` beside every
    `harness.step` of one world, with a copy of the same stream, and checks
    after each tick that every world field matches bit for bit. Both worlds
    share the attachment, contents and joint dicts that actions edit."""

    step = staticmethod(step)

    def __init__(self, world, scenario):
        self.world, self.twin = world, oracles.pose_make_world(scenario)
        for name in ("attachments", "contents", "joint_values"):
            setattr(self.twin, name, getattr(world, name))
        self.ticks = 0
        self.check()

    def __call__(self, world, base_cmd, ee_cmd, dt, tracking, rng, scenario, grid=None):
        assert world is self.world
        twin_rng = copy.deepcopy(rng)
        self.step(world, base_cmd, ee_cmd, dt, tracking, rng, scenario, grid)
        oracles.pose_step(self.twin, base_cmd, ee_cmd, dt, tracking, twin_rng, scenario, grid)
        assert rng.bit_generator.state == twin_rng.bit_generator.state
        self.ticks += 1
        self.check()

    def check(self):
        w, twin = self.world, self.twin
        for name in ("t", "base_pose", "base_xy", "base_yaw", "base_vel", "ee_pose"):
            assert _bits(getattr(w, name)) == _bits(getattr(twin, name)), (self.ticks, name)
        assert w.object_positions.keys() == twin.object_positions.keys()
        for oid, p in w.object_positions.items():
            assert _bits(p) == _bits(twin.object_positions[oid]), (self.ticks, oid)


class TestStepOracle:
    """`step` holds the base as floats and builds its Pose only when read;
    `oracles.pose_step` builds a Pose every tick and reads the yaw back
    through the full rotation matrix. Every field agrees on every tick."""

    @pytest.mark.parametrize("dt", [0.02, 0.05])
    @pytest.mark.parametrize("tracking", [
        TrackingConfig(), TrackingConfig(tau_base=0.1, noise_pos=0.002, noise_ori=0.01)],
        ids=["noise_free", "noisy"])
    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIO_DIR.glob("*.yaml"))])
    def test_bundled_episode(self, monkeypatch, name, tracking, dt):
        runner = EpisodeRunner(load_scenario(SCENARIO_DIR / f"{name}.yaml"), dt=dt,
                               master_seed=0, config=Config(tracking=tracking))
        lockstep = Lockstep(runner.world, runner.scenario)
        monkeypatch.setattr(harness, "step", lockstep)
        trace = runner.run().trace
        assert lockstep.ticks == len(trace) > 0

    def test_collision_halt(self):
        s = scenario_from_dict(minimal_scenario_dict(
            static_obstacles=[{"min": [0.4, -0.5, 0.0], "max": [1.0, 0.5, 0.5]}]))
        grid, lockstep = build_occupancy_grid(s), Lockstep(make_world(s), s)
        rng = make_rng(0)
        for _ in range(100):
            lockstep(lockstep.world, LocomotionCommand(1.0, 0, 0.2), None, 0.02,
                     TrackingConfig(), rng, s, grid=grid)
        assert lockstep.world.base_vel == (0.0, 0.0, 0.0)  # halted

    def test_drag_with_base_rider(self):
        s = scenario_from_dict(minimal_scenario_dict(objects=[
            {"id": "marker", "label": "marker", "type": "rigid",
             "position": [1.5, 0.0, 0.05], "size": [0.05, 0.05, 0.05]},
            {"id": "crate", "label": "crate", "type": "draggable",
             "position": [0.6, 0.0, 0.2], "size": [0.4, 0.4, 0.4]}]))
        lockstep = Lockstep(make_world(s), s)
        w, rng = lockstep.world, make_rng(3)
        w.attachments["crate"] = ("base", w.base_pose.inverse().transform(vec3(0.6, 0.0, 0.2)))
        w.contents["marker"] = ("crate", vec3(0.0, 0.0, 0.25))
        tracking = TrackingConfig(tau_base=0.1, noise_pos=0.002, noise_ori=0.01)
        # turn both ways, so the yaw and the quaternion's z change sign
        for w_cmd in [0.8] * 120 + [-1.0] * 240:
            lockstep(w, LocomotionCommand(0.5, 0.1, w_cmd), None, 0.02, tracking, rng, s)
        assert lockstep.world.base_yaw < 0.0

    def test_navigate_builds_no_pose_per_tick(self, monkeypatch):
        # cart_delivery's first navigate: the goal search and the path build
        # a few Poses, the ticks none, so halving dt leaves the count alone
        built, post_init = [], Pose.__post_init__
        monkeypatch.setattr(Pose, "__post_init__", lambda p: (built.append(p), post_init(p)))
        scenario = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        noisy = Config(tracking=TrackingConfig(tau_base=0.1, noise_pos=0.002, noise_ori=0.01))
        counts = []
        for dt in (0.02, 0.01):
            runner = EpisodeRunner(scenario, dt=dt, master_seed=0, config=noisy)
            navigate = runner.build_plan()[0]
            built.clear()
            assert runner.execute_action(0, navigate).success
            counts.append((len(runner.ticks), len(built)))
        assert counts[0][0] == 153 and counts[1][0] > 290
        assert counts[0][1] == counts[1][1] <= 2


class TestFollowerOracle:
    """The follower and the near monitors decide each distance with
    `norm_within`; `oracles.follow_path` and `oracles.condition_holds` take
    it as `norm` of a 2-element array. From dt 0.2 on the speed cap binds
    (0.8 * dt > NAV_GOAL_TOL) and reads the distance itself."""

    @staticmethod
    def episode(scenario, dt, tracking):
        """Each tick's command bits, the latches, and how many ticks each
        near monitor of the plan held as the oracle judges it, after a check
        that the library judges it the same on that tick."""
        runner = EpisodeRunner(scenario, dt=dt, master_seed=0, config=Config(tracking=tracking))
        near = [m for step in scenario.plan for m in step.monitors
                if m.kind in (planning.ConditionKind.ROBOT_NEAR,
                              planning.ConditionKind.OBJECT_NEAR)]
        commands, held, tick = [], [0] * len(near), runner.tick

        def recorded(base_cmd, ee_cmd):
            tick(base_cmd, ee_cmd)
            commands.append(_bits(base_cmd))
            for i, m in enumerate(near):
                holds = oracles.condition_holds(m, runner.world)
                assert planning.condition_holds(m, runner.world) is holds, (len(commands), m)
                held[i] += holds

        runner.tick = recorded
        runner.run()
        return commands, runner.latched, held

    @pytest.mark.parametrize("dt", [0.02, 0.05, 0.2, 0.3])
    @pytest.mark.parametrize("tracking", [
        TrackingConfig(), TrackingConfig(tau_base=0.1, noise_pos=0.002, noise_ori=0.01)],
        ids=["noise_free", "noisy"])
    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIO_DIR.glob("*.yaml"))])
    def test_bundled_episode(self, monkeypatch, name, tracking, dt):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        ours = self.episode(scenario, dt, tracking)
        monkeypatch.setattr(EpisodeRunner, "_follow_path", oracles.follow_path)
        monkeypatch.setattr(planning, "condition_holds", oracles.condition_holds)
        theirs = self.episode(scenario, dt, tracking)
        assert len(ours[0]) > 0
        assert ours[0] == theirs[0]
        assert {k: _bits(t) for k, t in ours[1].items()} == \
            {k: _bits(t) for k, t in theirs[1].items()}
        assert ours[2] == theirs[2]

    @pytest.mark.parametrize("dt", [0.2, 0.3, 0.5, 1.0])
    def test_speed_cap_at_its_bound(self, dt):
        # goals about 0.8 * dt ahead, a few ulps either side, where dist / dt
        # meets the cap: the first command is 0.8 or just below it
        scenario = scenario_from_dict(minimal_scenario_dict())
        first = set()
        for yaw in (0.0, 0.4, 2.0, -2.9):
            for k in range(-6, 7):
                d = 0.8 * dt * (1.0 + k * 2.0 ** -52)
                goal = np.array((d * np.cos(yaw), d * np.sin(yaw)))
                commands = []
                for follow in (EpisodeRunner._follow_path, oracles.follow_path):
                    runner = EpisodeRunner(scenario, dt=dt, master_seed=0)
                    runner._action_index = 0
                    runner.world.move_base(0.0, 0.0, yaw, BASE_STAND_HEIGHT)
                    commands.append([])
                    runner.tick = lambda c, e, tick=runner.tick, out=commands[-1]: (
                        out.append(_bits(c)), tick(c, e))
                    follow(runner, [goal], goal, 2.5 * dt)
                    first.add(runner.ticks[0][5])
                assert commands[0] == commands[1], (yaw, k)
        assert max(first) == 0.8 and min(first) < 0.8

    def test_navigate_calls_norm_only_in_the_band(self, monkeypatch):
        # cart_delivery's first navigate, noise-free: each distance test
        # whose squared distance lies within NORM_BAND of the bound's square
        # may ask `norm`, and at dt 0.02 the speed cap never binds; every
        # other tick decides on floats, so a per-tick array shows here
        runner = EpisodeRunner(load_scenario(SCENARIO_DIR / "cart_delivery.yaml"), master_seed=0)
        navigate = runner.build_plan()[0]
        calls, in_band = [], []
        for module in (geometry, harness, planning):
            monkeypatch.setattr(module, "norm", lambda v, norm=module.norm:
                                calls.append(v) or norm(v))
        for module in (harness, planning):
            def counted(dx, dy, bound, strict=False, within=module.norm_within):
                s, b2 = dx * dx + dy * dy, bound * bound
                in_band.append(not abs(s - b2) > NORM_BAND * b2)
                return within(dx, dy, bound, strict)
            monkeypatch.setattr(module, "norm_within", counted)
        assert runner.execute_action(0, navigate).success
        assert len(runner.ticks) > 100 and len(in_band) > 2 * len(runner.ticks)
        assert len(calls) <= sum(in_band)


class TestSceneBuilders:
    def test_instance_graph_one_node_per_object(self):
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        graph, node_of = build_instance_graph(s)
        assert len(graph) == len(s.objects)
        assert set(node_of) == {o.id for o in s.objects}
        summary = graph.graph_summary()
        apple = next(r for r in summary if r["label"] == "red apple")
        assert np.allclose(apple["center"], [2.0, 0.0, 0.10], atol=1e-9)

    def test_occupancy_grid_marks_static_obstacles(self):
        data = minimal_scenario_dict(
            static_obstacles=[{"min": [0.5, -0.2, 0.0], "max": [0.9, 0.2, 0.5]}])
        s = scenario_from_dict(data)
        grid = build_occupancy_grid(s)
        cx, cy = grid.world_to_cell(0.7, 0.0)
        assert grid.cells[cy, cx] == OCCUPIED
        cx, cy = grid.world_to_cell(-0.5, 0.0)
        assert grid.cells[cy, cx] != OCCUPIED


class TestEpisode:
    def test_minimal_navigate_episode(self):
        s = scenario_from_dict(minimal_scenario_dict())
        result = run_episode(s, master_seed=0)
        assert [o.success for o in result.outcomes] == [True]
        assert result.metrics.overall is True
        assert result.metrics.per_action["navigate"].rate == 1.0
        assert result.trace, "expected per-tick trace rows"

    def test_trace_is_deterministic(self):
        s = scenario_from_dict(minimal_scenario_dict())
        a = run_episode(s, master_seed=5)
        b = run_episode(s, master_seed=5)
        assert a.trace == b.trace

    def test_horizon_exhaustion_recorded(self):
        data = minimal_scenario_dict(horizon=0.1)
        data["plan"].append({"kind": "navigate", "description": "second leg",
                             "waypoint": [0.0, 1.5, 0.0]})
        s = scenario_from_dict(data)
        result = run_episode(s, master_seed=0)
        assert result.outcomes[-1].success is False
        assert "horizon" in result.outcomes[-1].detail

    def test_command_error_metrics_bounded(self):
        s = scenario_from_dict(minimal_scenario_dict())
        m = run_episode(s, master_seed=0).metrics
        # zero-lag tracking: command errors should be exactly zero
        assert m.e_x == 0.0
        assert m.e_y == 0.0
        assert m.e_w == 0.0

    @pytest.mark.parametrize("dt", [0.0, -0.02, float("nan"), float("inf")])
    def test_bad_dt_rejected(self, dt):
        # 0 and -0.02 never reached a deadline, and nan failed in an int cast
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        with pytest.raises(UsageError, match=r"^dt must be finite and > 0, got "):
            run_episode(s, dt=dt, master_seed=0)
        with pytest.raises(UsageError, match=r"^dt must be finite and > 0, got "):
            EpisodeRunner(s, dt=dt)

    @pytest.mark.parametrize("dt", [0.3, 0.45, 0.5, 0.6])
    def test_follower_does_not_overshoot_at_large_dt(self, dt):
        # at a flat 0.8 m/s one tick could carry the base across the 0.15 m
        # goal disk, and navigate and drag ended in a navigation timeout
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        outcomes = run_episode(s, dt=dt, master_seed=0).outcomes
        assert [(o.success, o.detail) for o in outcomes] == [(True, "")] * 6

    def test_lagged_tracking_reports_errors(self):
        s = scenario_from_dict(minimal_scenario_dict())
        m = run_episode(s, config=Config(tracking=TrackingConfig(tau_base=0.3)),
                        master_seed=0).metrics
        assert m.e_x > 0.0

    def test_episodes_of_one_scenario_share_no_latch(self):
        # every golden episode succeeds, so only a failing episode run after
        # a succeeding one on the same Scenario shows a latch carried over
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        shaky = Config(tracking=TrackingConfig(noise_pos=0.05))  # the grasp misses
        clean = run_episode(s, master_seed=0)
        first = EpisodeRunner(s, master_seed=0, config=shaky)
        first_metrics = first.run().metrics
        second = EpisodeRunner(s, master_seed=0, config=shaky)
        assert second.latched == {}  # nothing carried over from the first
        second_metrics = second.run().metrics
        assert first.latched == second.latched
        assert clean.metrics.overall is True
        assert first_metrics.per_action == second_metrics.per_action
        assert first_metrics.per_action["pick"].completed == 0

    # the three scenarios the golden digests pin, under the pins' tracking flags
    @pytest.mark.parametrize("tracking", [
        TrackingConfig(), TrackingConfig(tau_base=0.1, noise_pos=0.002, noise_ori=0.01)],
        ids=["noise_free", "noisy"])
    @pytest.mark.parametrize("name", ["cart_delivery", "drawer_and_crate", "missed_grasp"])
    def test_monitor_latches_during_its_step(self, name, tracking):
        runner = EpisodeRunner(load_scenario(SCENARIO_DIR / f"{name}.yaml"),
                               master_seed=0, config=Config(tracking=tracking))
        ticks = {(row[0], row[1]) for row in runner.run().trace}  # (t, action_index)
        for (i, j), t in runner.latched.items():
            m = runner.scenario.plan[i].monitors[j]
            assert (t, i) in ticks, f"{m.name} latched at t={t}, outside step {i}"

    # every final object position, the attached ids, and a digest of every
    # object position after every tick
    @pytest.mark.parametrize("name, tracking, final, attached, digest", [
        ("cart_delivery", "noise_free",
         {"apple": [-2.0862903711358016, 2.2173000554969007, 0.55],
          "cart": [-2.0862903711358016, 2.2173000554969007, 0.25]},
         [], "4e9368c1eb75afe50deb09e54592795d062a2b25519a648209fef4f76521d1a2"),
        ("cart_delivery", "noisy",
         {"apple": [-2.0151576473350366, 2.1401762825784862, 0.55],
          "cart": [-2.0151576473350366, 2.1401762825784862, 0.25]},
         [], "72ade04a28ed9cf41d6505071feccc494a7d5213f575eb67838a50f96aa82578"),
        ("drawer_and_crate", "noise_free",
         {"drawer": [1.0, 0.0, 0.4],
          "crate": [-0.9010267401080245, 1.413942204692904, 0.19999999999999993]},
         [], "3594afeebf5e570193b598706639d9396b69ae9a6b2cbc1a82ef1ce59d2bb31e"),
        ("drawer_and_crate", "noisy",
         {"drawer": [1.0, 0.0, 0.4],
          "crate": [-0.907042324860521, 1.3933684715672279, 0.20000000000000007]},
         [], "e7c3132dbf9649d2e6017e7c9d0a5bbd3da3b8299378c2ec1d404a1c09ff989b"),
        ("missed_grasp", "noise_free", {"apple": [0.6, 0.0, 0.1], "drawer": [0.6, -0.6, 0.4]},
         [], "d4cde60f1e8422e7b99526e78e7ddfbe08e402d3f5e3336c5e826a038c51c25b"),
        ("missed_grasp", "noisy", {"apple": [0.6, 0.0, 0.1], "drawer": [0.6, -0.6, 0.4]},
         [], "d4cde60f1e8422e7b99526e78e7ddfbe08e402d3f5e3336c5e826a038c51c25b"),
    ])
    def test_object_positions_pinned(self, name, tracking, final, attached, digest):
        tracking = {"noise_free": TrackingConfig(),
                    "noisy": TrackingConfig(tau_base=0.1, noise_pos=0.002,
                                            noise_ori=0.01)}[tracking]
        runner = EpisodeRunner(load_scenario(SCENARIO_DIR / f"{name}.yaml"),
                               master_seed=0, config=Config(tracking=tracking))
        positions = runner.world.object_positions
        hashed, tick = hashlib.sha256(), runner.tick

        def recording_tick(*args):
            tick(*args)
            hashed.update(repr({oid: p.tolist() for oid, p in positions.items()}).encode())

        runner.tick = recording_tick
        runner.run()
        # a float's repr round-trips, so list equality pins every repr
        assert {oid: p.tolist() for oid, p in positions.items()} == final
        assert sorted(runner.world.attachments) == attached
        assert hashed.hexdigest() == digest

    # the float caches beside base_pose, and the trace's cell types
    @pytest.mark.parametrize("tracking", [
        TrackingConfig(), TrackingConfig(tau_base=0.1, noise_pos=0.002, noise_ori=0.01)],
        ids=["noise_free", "noisy"])
    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIO_DIR.glob("*.yaml"))])
    def test_base_caches_follow_base_pose(self, name, tracking):
        runner = EpisodeRunner(load_scenario(SCENARIO_DIR / f"{name}.yaml"),
                               master_seed=0, config=Config(tracking=tracking))
        w, tick, ticks = runner.world, runner.tick, []

        def checking_tick(*args):
            tick(*args)
            assert w.base_yaw == w.base_pose.yaw()
            assert w.base_xy == tuple(w.base_pose.position[:2])
            assert {type(v) for v in (*w.base_xy, w.base_yaw, *w.base_vel)} == {float}
            ticks.append(w.t)

        runner.tick = checking_tick
        trace = runner.run().trace
        assert len(ticks) == len(trace) > 0
        # no numpy scalar reaches write_csv
        assert {type(v) for row in trace for v in row} == {int, float}

    def test_placed_object_rides_until_picked_again(self):
        # pick the apple back out of the cart, then haul the cart away: the
        # apple stays with the gripper, not with the cart
        data = _bundled("cart_delivery")
        pick, drag = data["plan"][1], data["plan"][4]
        data["plan"] = data["plan"][:4] + [{**pick, "monitors": []}, {**drag, "monitors": []}]
        runner = EpisodeRunner(scenario_from_dict(data), master_seed=0)
        outcomes = runner.run().outcomes
        w = runner.world
        assert [o.success for o in outcomes] == [True] * 6
        assert list(w.attachments) == ["apple"] and w.contents == {}
        carrier, rel = w.attachments["apple"]
        assert carrier == "ee"
        assert np.array_equal(w.object_positions["apple"], w.ee_pose.transform(rel))
        cart_load = w.object_positions["cart"] + vec3(0.0, 0.0, 0.30)  # its container_offset
        assert not np.allclose(w.object_positions["apple"], cart_load, atol=0.1)

    def test_collision_halt_inside_episode(self):
        # the follower cuts the wall's lower corner into the footprint; the
        # step refuses the move and zeroes the base velocity. Where the episode
        # ends is not pinned: the robot stalls there (see ROADMAP item 2)
        s = scenario_from_dict(minimal_scenario_dict(
            objects=[], static_obstacles=[{"min": [1.0, 0.4, 0.0], "max": [1.4, 3.4, 1.0]}],
            plan=_navigate([2.5, 1.0, 0.0])))
        trace = run_episode(s, master_seed=0).trace
        col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
        cmd = [col[c] for c in ("cmd_vx", "cmd_vy", "cmd_w")]
        act = [col[c] for c in ("act_vx", "act_vy", "act_w")]
        # with tau_base 0 the base velocity is the command, unless halted
        assert any(any(row[i] != 0.0 for i in cmd) and all(row[i] == 0.0 for i in act)
                   for row in trace)
        grid = build_occupancy_grid(s)
        assert all(footprint_clear(grid, row[col["base_x"]], row[col["base_y"]], 0.30)
                   for row in trace)

    def test_navigate_plans_from_base_cell_when_goal_grows_grid(self, monkeypatch):
        # the goal lies west of the grid, so indexing it grows the grid west
        # and moves the origin; the start cell must be indexed after that
        s = scenario_from_dict(minimal_scenario_dict(
            objects=[], horizon=60.0,
            static_obstacles=[{"min": [-1.5, -3.0, 0.0], "max": [-1.2, 0.5, 1.0]}],
            plan=_navigate([-12.0, 0.0, 0.0])))
        starts = []

        def recording_plan_path(grid, start, goal, **kwargs):
            path = plan_path(grid, start, goal, **kwargs)
            starts.append((path[0], grid.world_to_cell(0.0, 0.0)))
            return path

        monkeypatch.setattr(harness, "plan_path", recording_plan_path)
        result = run_episode(s, master_seed=0)
        [(path_start, base_cell)] = starts
        assert path_start == base_cell
        assert [(o.success, o.detail) for o in result.outcomes] == [(True, "")]

    def test_aggregate_pools_counts(self):
        s = scenario_from_dict(minimal_scenario_dict())
        reports = [run_episode(s, master_seed=k).metrics for k in range(2)]
        agg = aggregate(reports)
        assert agg.episodes == 2
        assert agg.per_action["navigate"].total == 2
        assert agg.overall == 1.0


class TestArtifacts:
    def test_trace_csv_byte_stable(self, tmp_path):
        s = scenario_from_dict(minimal_scenario_dict())
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(run_episode(s, master_seed=3).trace, pa)
        write_trace_csv(run_episode(s, master_seed=3).trace, pb)
        assert pa.read_bytes() == pb.read_bytes()
        header = pa.read_text().splitlines()[0]
        assert header.startswith("t,action_index,base_x")

    def test_report_json(self, tmp_path):
        s = scenario_from_dict(minimal_scenario_dict())
        m = run_episode(s, master_seed=0).metrics
        path = tmp_path / "report.json"
        write_report(m, path, extra={"scenario": "mini"})
        text = path.read_text()
        assert '"scenario": "mini"' in text
        assert '"e_x_x100"' in text


def write_trace_csv_dictwriter(trace, path):
    """The trace writer as it was, csv.DictWriter over one dict per row: the
    reference the one-join writer must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRACE_COLUMNS)
        writer.writeheader()
        for cells in trace:
            row = dict(zip(TRACE_COLUMNS, cells))
            out = {}
            for k in TRACE_COLUMNS:
                out[k] = row[k] if k == "action_index" else repr(float(row[k]))
            writer.writerow(out)


class TestTraceWriterOracle:
    """write_trace_csv must write exactly what csv.DictWriter wrote."""

    def _assert_same_bytes(self, trace, tmp_path):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_trace_csv(trace, ours)
        write_trace_csv_dictwriter(trace, ref)
        assert ours.read_bytes() == ref.read_bytes()

    def test_noisy_bundled_episode(self, tmp_path):
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        noisy = Config(tracking=TrackingConfig(tau_base=0.1, noise_pos=0.002,
                                               noise_ori=0.01))
        trace = run_episode(s, master_seed=0, config=noisy).trace
        assert len(trace) > 500
        self._assert_same_bytes(trace, tmp_path)

    def test_edge_floats(self, tmp_path):
        values = [-0.0, 5e-324, 1e300, 0.1 + 0.2, np.float64(0.1) + np.float64(0.2),
                  np.float64(-0.0), np.float64(5e-324), -1e300, 1.0, 1 / 3,
                  np.float64(2.0) ** 0.5, -123456789.125]
        n = len(TRACE_COLUMNS) - 2
        trace = [(values[k % len(values)], index,
                  *(values[(k + j) % len(values)] for j in range(n)))
                 for k, index in enumerate([-1, 0, 0, 3, -1, 0, 1, 2, 0, -1, 5, 0])]
        self._assert_same_bytes(trace, tmp_path)


class TestTraceColumns:
    def test_reward_columns_follow_stage1_terms(self):
        # rows are positional: the terms land right before total_stage1, in
        # stage1_terms' order
        terms = stage1_terms(Config(), np.zeros((0, 3)), np.zeros((0, 3)),
                             ContactTimeline())
        names = [f"r_{name}" for name in terms]
        assert TRACE_COLUMNS[-len(names) - 1:] == names + ["total_stage1"]
        assert [c for c in TRACE_COLUMNS if c.startswith("r_")] == names

    def test_every_row_has_every_column(self):
        trace = run_episode(scenario_from_dict(minimal_scenario_dict()),
                            master_seed=0).trace
        assert trace
        assert {len(row) for row in trace} == {len(TRACE_COLUMNS)}


class TestGroundingFixtureOffset:
    def _with_offset(self, offset):
        data = yaml.safe_load((SCENARIO_DIR / "cart_delivery.yaml").read_text())
        data["plan"][1]["grounding"] = {"offset": list(offset)}
        return scenario_from_dict(data)

    def test_small_offset_still_grasps(self):
        s = self._with_offset([0.03, 0.0, 0.0])
        result = run_episode(s, master_seed=0)
        pick = next(o for o in result.outcomes if o.kind == "pick")
        assert pick.success

    def test_large_offset_misses(self):
        s = self._with_offset([0.0, 0.0, 0.15])
        result = run_episode(s, master_seed=0)
        pick = next(o for o in result.outcomes if o.kind == "pick")
        assert not pick.success
        assert "grasp missed" in pick.detail

    # the wrist camera's look-at frame decides where the detected point lands
    def test_contact_behind_camera(self):
        result = run_episode(self._with_offset([0.0, 0.0, 0.8]), master_seed=0)
        pick, place = (next(o for o in result.outcomes if o.kind == kind)
                       for kind in ("pick", "place"))
        assert pick.detail == ("grounding failed: detected contact point "
                               "behind the wrist camera")
        assert place.detail == "nothing attached to place"

    def test_pixel_out_of_bounds(self):
        result = run_episode(self._with_offset([-0.5, 0.0, 0.6]), master_seed=0)
        pick = next(o for o in result.outcomes if o.kind == "pick")
        assert not pick.success
        assert pick.detail.startswith("grounding failed: oracle pixel (")
        assert pick.detail.endswith(") out of bounds")


def test_grounding_receives_the_step_description(monkeypatch):
    # a plan step's description is what the grounding oracle is asked to ground
    asked = []
    real = harness.ground_action

    def recording(oracle, cam, depth, image, action_description, **kwargs):
        asked.append(action_description)
        return real(oracle, cam, depth, image, action_description, **kwargs)

    monkeypatch.setattr(harness, "ground_action", recording)
    result = run_episode(load_scenario(SCENARIO_DIR / "cart_delivery.yaml"), master_seed=0)
    assert next(o for o in result.outcomes if o.kind == "pick").success
    assert asked == ["grasp the apple from above"]


def test_ground_target_in_steep_look_at_band():
    """A base 1.5 m from the object along x and level with it puts the wrist
    camera's optical axis within 15 degrees of world x (|x . z| > 0.95): the
    look-at frame there still grounds the point the camera sees."""
    data = minimal_scenario_dict(plan=[
        {"kind": "pick", "description": "pick the marker", "target": "marker"}])
    data["objects"][0]["position"] = [1.5, 0.0, BASE_STAND_HEIGHT]
    runner = EpisodeRunner(scenario_from_dict(data), master_seed=0)
    runner._action_index = 0
    obj = runner.scenario.objects[0]
    true_attach = obj.attach_point()
    toward_camera = runner.world.base_pose.position - true_attach
    toward_camera[2] = abs(toward_camera[2]) + 0.4
    assert abs(toward_camera[0]) / np.linalg.norm(toward_camera) > 0.95
    grounded = runner.world.base_pose.compose(runner._ground_target(obj))
    # the depth image is float32: a 0.6 m depth rounds by up to 0.6 * 2**-24 m
    assert np.abs(grounded.position - true_attach).max() <= 1e-7


def _bundled(name, **overrides):
    data = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
    data.update(overrides)
    return data


# 0.2 m walls sealing off x 3..7 m, y -2..2 m
SEALED_ROOM = [{"min": [3.0, -2.0, 0.0], "max": [3.2, 2.0, 1.0]},
               {"min": [6.8, -2.0, 0.0], "max": [7.0, 2.0, 1.0]},
               {"min": [3.0, -2.0, 0.0], "max": [7.0, -1.8, 1.0]},
               {"min": [3.0, 1.8, 0.0], "max": [7.0, 2.0, 1.0]}]


def _navigate(waypoint):
    return [{"kind": "navigate", "description": "walk", "waypoint": waypoint}]


# Every failure detail an action records, as (scenario, plan step, exact
# detail) under master_seed 0. A horizon cut sits inside the band of horizons
# (scanned in 0.02 s or 0.05 s steps) that records the detail.
FAILURE_DETAILS = [
    # band 0.02-0.62 s
    pytest.param(_bundled("missed_grasp", horizon=0.3), 0,
                 "pre-contact alignment timeout", id="pre_contact_timeout"),
    # band 0.64-0.92 s
    pytest.param(_bundled("missed_grasp", horizon=0.8), 0,
                 "approach timeout", id="approach_timeout"),
    # band 0.96-1.40 s
    pytest.param(_bundled("missed_grasp", horizon=1.2), 1,
                 "handle approach timeout", id="handle_approach_timeout"),
    # band 7.10-7.65 s
    pytest.param(_bundled("cart_delivery", horizon=7.4), 3,
                 "hover timeout", id="hover_timeout"),
    # band 7.75-12.55 s
    pytest.param(_bundled("cart_delivery", horizon=10.0), 4,
                 "drag transit failed: navigation timeout", id="drag_transit_timeout"),
    # band 1.20-4.64 s
    pytest.param(_bundled("drawer_and_crate", horizon=3.0), 1,
                 "approach failed: navigation timeout", id="drag_approach_timeout"),
    pytest.param(minimal_scenario_dict(
        static_obstacles=[{"min": [-1.0, 2.0, 0.0], "max": [5.0, 8.0, 1.0]}],
        plan=_navigate([2.0, 5.0, 0.0])), 0,
        "no collision-free goal within 2.0 m of (2.00, 5.00)", id="no_feasible_goal"),
    pytest.param(minimal_scenario_dict(
        static_obstacles=SEALED_ROOM, plan=_navigate([5.0, 0.0, 0.0])), 0,
        "goal (81, 96) unreachable from (32, 96)", id="no_path"),
    pytest.param(minimal_scenario_dict(
        static_obstacles=SEALED_ROOM,
        objects=[{"id": "crate", "type": "draggable", "position": [5.0, 0.0, 0.2],
                  "size": [0.4, 0.4, 0.4]}],
        plan=[{"kind": "drag", "description": "haul the crate out", "target": "crate",
               "waypoint": [0.0, -3.0, 0.0]}]), 0,
        "approach failed: goal (89, 96) unreachable from (32, 96)", id="drag_approach_no_path"),
]

# failure details that other tests pin, each up to where its test stops reading
PINNED_ELSEWHERE = [
    "grasp missed: pos_err=0.12",  # test_cli TestGoldenDigest, missed_grasp
    "grounding failed: detected contact point behind the wrist camera",
    "nothing attached to place", "articulation timeout", "navigation timeout",
    "horizon exhausted",
]


@pytest.mark.parametrize("data, index, detail", FAILURE_DETAILS)
def test_failure_detail(data, index, detail):
    outcome = run_episode(scenario_from_dict(data), master_seed=0).outcomes[index]
    assert (outcome.success, outcome.detail) == (False, detail)


def _leading_text(node) -> str:
    """The constant text a message expression starts with: all of a string
    literal, the literal head of an f-string, else ''."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    head = ""
    for part in node.values if isinstance(node, ast.JoinedStr) else ():
        if not isinstance(part, ast.Constant):
            break
        head += part.value
    return head


def failure_prefixes() -> list[str]:
    """The leading text of every failure message `harness` raises: each
    `ActionFailed(...)` message, and each `failure` text a caller hands
    `_move_ee_to`, which raises it as given."""
    tree = ast.parse(Path(harness.__file__).read_text())
    messages = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name == "ActionFailed":
            messages += call.args[:1]
        elif name == "_move_ee_to":
            messages += call.args[2:3] + [k.value for k in call.keywords
                                          if k.arg == "failure"]
    return [_leading_text(m) for m in messages
            if not (isinstance(m, ast.Name) and m.id == "failure")]


def test_every_failure_message_has_a_test():
    """A new failure branch needs a row in FAILURE_DETAILS (or a test that
    pins it, listed in PINNED_ELSEWHERE)."""
    known = [p.values[2] for p in FAILURE_DETAILS] + PINNED_ELSEWHERE
    prefixes = failure_prefixes()
    assert len(prefixes) >= 10
    assert [p for p in prefixes
            if not p or not any(detail.startswith(p) for detail in known)] == []
