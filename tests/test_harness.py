import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from locoman.cli import _load_runnable
from locoman.config import Config, TrackingConfig, to_dict
from locoman.errors import LocomanError, ParseError, ValidationError
from locoman.geometry import Pose, quat_geodesic_distance, vec3
from locoman.harness import (BASE_STAND_HEIGHT, TRACE_COLUMNS, EpisodeRunner,
                             aggregate, build_instance_graph, build_occupancy_grid,
                             make_world, run_episode, stage1_terms, step,
                             write_report, write_trace_csv)
from locoman.navgrid import FREE, OCCUPIED, OccupancyGrid
from locoman.rewards import ContactTimeline
from locoman.sampling import LocomotionCommand, make_rng
from locoman.scenario import load_scenario, scenario_from_dict

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
             "waypoint": [1.5, 0.0, 0.05]},
        ],
        "monitors": [
            {"name": "arrived", "kind": "robot_near", "step": 0,
             "point": [1.5, 0.0, 0.0], "threshold": 1.0},
        ],
    }
    data.update(overrides)
    return data


class TestScenarioSchema:
    def test_load_bundled_scenario(self):
        s = load_scenario(SCENARIO_DIR / "cart_delivery.yaml")
        assert s.name == "cart_delivery"
        assert len(s.plan) == 6
        assert len(s.monitors) == 6

    def test_round_trip(self):
        for s in (scenario_from_dict(minimal_scenario_dict()),
                  load_scenario(SCENARIO_DIR / "cart_delivery.yaml")):
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
        path.write_text(yaml.safe_dump(minimal_scenario_dict(plan=[], monitors=[])))
        assert load_scenario(path).plan == []
        with pytest.raises(ValidationError, match="plan is empty"):
            _load_runnable(path)

    def test_scene_only_needs_header_and_start(self):
        data = {k: v for k, v in minimal_scenario_dict().items()
                if k in ("name", "instruction", "horizon", "robot_start")}
        s = scenario_from_dict(data)
        assert (s.seed, s.objects, s.plan, s.monitors) == (0, [], [], [])

    def test_label_defaults_to_id(self):
        data = minimal_scenario_dict()
        del data["objects"][0]["label"]
        assert scenario_from_dict(data).objects[0].label == "marker"

    def test_monitor_object_must_exist(self):
        data = minimal_scenario_dict()
        data["monitors"].append({"name": "m", "kind": "attached",
                                 "step": 0, "object": "ghost"})
        with pytest.raises(ValidationError, match=r"monitors\[1\].object"):
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
                scenario = _load_runnable(path)
            except ValidationError:
                return
        try:
            run_episode(scenario, master_seed=0)
        except LocomanError:
            pass


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
        rel = w.ee_pose.inverse().compose(w.object_poses["marker"])
        w.attachments["marker"] = ("ee", rel)
        target = Pose(vec3(0.5, 0.5, 0.9))
        for _ in range(200):
            step(w, LocomotionCommand(0, 0, 0), target, 0.02,
                 TrackingConfig(), make_rng(0), s)
        carried = w.object_poses["marker"]
        expected = w.ee_pose.compose(rel)
        assert np.allclose(carried.position, expected.position, atol=1e-9)

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
        for i, t in runner.latched.items():
            m = runner.scenario.monitors[i]
            assert (t, m.step) in ticks, f"{m.name} latched at t={t}, outside step {m.step}"

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
        terms = stage1_terms(Config(), np.zeros(3), np.zeros(3), ContactTimeline())
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
        data["grounding"]["1"] = {"offset": list(offset)}
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
