import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from locoman import cli, harness
from locoman.cli import main
from locoman.config import Config, TrackingConfig, to_dict
from locoman.training import COMMAND_RANGES

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "cart_delivery.yaml"
NOISY = ("--tau-base", 0.1, "--noise-pos", 0.002, "--noise-ori", 0.01)
CONTACTS = "t,contact_FL,contact_FR,contact_RL,contact_RR"


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def files_of(run_dir):
    return sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file())


def assert_matches_serial(tmp_path, target, jobs=2, episodes=2):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    res = invoke("run", target, "--seed", 4, "--episodes", episodes, "--out", a)
    assert res.exit_code == 0, res.output
    res = invoke("run", target, "--seed", 4, "--episodes", episodes, "--jobs", jobs,
                 "--out", b)
    assert res.exit_code == 0, res.output
    assert files_of(a) == files_of(b)
    for rel in files_of(a):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def trace_column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def scenario_with(tmp_path, edit):
    data = yaml.safe_load(SCENARIO.read_text())
    edit(data)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


# malformed config files, each with the location its message must name
MALFORMED_CONFIGS = [
    pytest.param("tracking: {tau: 0.1}\n", "config.tracking.tau", id="unknown_key"),
    pytest.param("- gamma_xy\n- 0.5\n", "config: expected a mapping", id="list"),
    pytest.param("gamma_xy: [0.5\n", "bad.yaml", id="yaml_syntax"),
    pytest.param("tracking: {ee_rate: 0}\n", "config.tracking.ee_rate: must be finite and > 0",
                 id="out_of_range"),
    pytest.param("reward_weights: {track_xy: big}\n", "config.reward_weights.track_xy",
                 id="not_numbers"),
    # a table that config files held before it became a module constant
    pytest.param(yaml.safe_dump({"command_ranges": to_dict(COMMAND_RANGES)}),
                 "config.command_ranges: unknown key", id="removed_key"),
    # the tracking rewards divide by their scales: exp(-err^2 / gamma)
    pytest.param("gamma_xy: 0.0\n", "config.gamma_xy: must be finite and > 0, got 0.0",
                 id="gamma_xy_zero"),
    pytest.param("gamma_w: 0.0\n", "config.gamma_w: must be finite and > 0, got 0.0",
                 id="gamma_w_zero"),
    pytest.param("gamma_xy: -0.25\n", "config.gamma_xy: must be finite and > 0, got -0.25",
                 id="gamma_xy_negative"),
]

# out-of-range numbers for `run`: (arguments, exit code, text the message names)
BAD_NUMBERS = [
    pytest.param(("--dt", "nan"), 2, "'--dt'", id="dt_nan"),
    pytest.param(("--dt", "inf"), 2, "'--dt'", id="dt_inf"),
    pytest.param(("--tau-base", "nan"), 2, "'--tau-base'", id="tau_base_nan"),
    pytest.param(("--seed", -1), 2, "'--seed'", id="seed_negative"),
    pytest.param(("--seed", -1, "--jobs", 2), 2, "'--seed'", id="seed_negative_jobs_2"),
    pytest.param(("--noise-pos", -0.1), 2, "'--noise-pos'", id="noise_pos_negative"),
    pytest.param(("--ee-rate", -5), 2, "'--ee-rate'", id="ee_rate_negative"),
    pytest.param(("--config", "tracking: {noise_pos: -0.5}\n"), 3,
                 "config.tracking.noise_pos", id="config_noise_pos_negative"),
]


class TestRun:
    def test_writes_run_directory(self, tmp_path):
        out = tmp_path / "run"
        res = invoke("run", SCENARIO, "--seed", 1, "--out", out)
        assert res.exit_code == 0, res.output
        assert (out / "manifest.json").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "cart_delivery" / "episode_0" / "trace.csv").exists()
        report = json.loads(
            (out / "cart_delivery" / "episode_0" / "report.json").read_text())
        assert report["overall"] is True
        assert report["per_action"]["pick"]["rate"] == 1.0

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        invoke("run", SCENARIO, "--seed", 9, "--episodes", 2, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["episodes"] == 2
        assert manifest["config_hash"] == Config().digest()
        assert len(manifest["scenarios"][0]["sha256"]) == 64

    def test_scenario_seed_is_the_default(self, tmp_path):
        # cart_delivery.yaml says `seed: 7`; noise makes the trace seed-dependent
        def trace_of(name, *seed):
            res = invoke("run", SCENARIO, *seed, *NOISY, "--out", tmp_path / name)
            assert res.exit_code == 0, res.output
            return (tmp_path / name / "cart_delivery" / "episode_0" / "trace.csv").read_bytes()

        unset = trace_of("unset")
        assert unset == trace_of("seven", "--seed", 7)
        assert unset != trace_of("zero", "--seed", 0)
        assert json.loads((tmp_path / "unset" / "manifest.json").read_text())["seed"] is None

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke("run", SCENARIO, "--seed", 4, "--episodes", 2, "--out", a)
        invoke("run", SCENARIO, "--seed", 4, "--episodes", 2, "--out", b)
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_jobs_matches_serial(self, tmp_path):
        assert_matches_serial(tmp_path, SCENARIO)

    def test_more_jobs_than_episodes_matches_serial(self, tmp_path):
        assert_matches_serial(tmp_path, SCENARIO, jobs=3)

    def test_more_episodes_than_jobs_matches_serial(self, tmp_path):
        assert_matches_serial(tmp_path, SCENARIO, jobs=3, episodes=5)

    def test_threaded_caller_jobs_matches_serial(self, tmp_path):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert cli._start_method() == "spawn"
            assert_matches_serial(tmp_path, SCENARIO)
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()

    def test_scenario_directory_jobs_matches_serial(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        data = yaml.safe_load(SCENARIO.read_text())
        for name in ("alpha", "beta"):
            data["name"] = name
            (suite / f"{name}.yaml").write_text(yaml.safe_dump(data))
        assert_matches_serial(tmp_path, suite)
        assert {p.name for p in (tmp_path / "parallel").iterdir()} == {
            "alpha", "beta", "aggregate.json", "manifest.json"}

    def test_unequal_scenarios_jobs_matches_serial(self, tmp_path):
        # a missed grasp ends its episode long before a full delivery does
        suite = tmp_path / "suite"
        suite.mkdir()
        for name in ("cart_delivery", "missed_grasp"):
            (suite / f"{name}.yaml").write_bytes((ROOT / "scenarios" / f"{name}.yaml").read_bytes())
        assert_matches_serial(tmp_path, suite)

    def test_empty_scenario_directory_usage_exit(self, tmp_path):
        res = invoke("run", tmp_path, "--out", tmp_path / "o")
        assert res.exit_code == 2

    def test_plan_fault_config_exit(self, tmp_path):
        # no episode can start an empty plan, so run rejects it with a
        # config exit, not a traceback
        bad = scenario_with(tmp_path, lambda d: d.update(plan=[]))
        res = invoke("run", bad, "--episodes", 2, "--jobs", 2,
                     "--out", tmp_path / "o")
        assert res.exit_code == 3, res.output
        assert "plan is empty" in res.output

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_config_reaches_episodes(self, tmp_path, jobs):
        def run_with(name, **changes):
            cfg = to_dict(Config())
            cfg.update(changes)
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            out = tmp_path / name
            res = invoke("run", SCENARIO, "--episodes", 2, "--jobs", jobs,
                         "--tau-base", 0.1, "--config", path, "--out", out)
            assert res.exit_code == 0, res.output
            return out / "cart_delivery" / "episode_1" / "trace.csv"

        default = run_with("default")
        weights = to_dict(Config())["reward_weights"]
        weights["track_xy"] = [100, 100]
        heavy = run_with("heavy", reward_weights=weights)
        wide = run_with("wide", gamma_xy=9)
        assert trace_column(heavy, "r_track_xy") == trace_column(default, "r_track_xy")
        assert trace_column(heavy, "total_stage1") != trace_column(default, "total_stage1")
        assert trace_column(wide, "r_track_xy") != trace_column(default, "r_track_xy")

    def test_config_hash_covers_flag_overrides(self, tmp_path):
        def config_hash(name, *flags):
            out = tmp_path / name
            res = invoke("run", SCENARIO, *flags, "--out", out)
            assert res.exit_code == 0, res.output
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        lagged = config_hash("lagged", "--tau-base", 0.1)
        assert lagged != config_hash("default")
        assert lagged == Config(tracking=TrackingConfig(tau_base=0.1)).digest()

    @pytest.mark.parametrize("command", ["run-1", "run-2", "rewards"])
    @pytest.mark.parametrize("text, where", MALFORMED_CONFIGS)
    def test_malformed_config_exit(self, tmp_path, command, text, where):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        if command == "rewards":
            timeline = tmp_path / "timeline.csv"
            timeline.write_text("t,contact_FL,contact_FR,contact_RL,contact_RR\n")
            res = invoke("rewards", timeline, "--config", path,
                         "--out", tmp_path / "terms.csv")
        else:
            res = invoke("run", SCENARIO, "--episodes", 2, "--jobs", command[-1],
                         "--config", path, "--out", tmp_path / "o")
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert where in res.output
        assert "Traceback" not in res.output

    def test_unreadable_config_io_exit(self, tmp_path):
        res = invoke("run", SCENARIO, "--config", tmp_path, "--out", tmp_path / "o")
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)

    def test_partial_config_runs(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("tracking: {tau_base: 0.1}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        res = invoke("run", SCENARIO, "--config", path, "--out", a)
        assert res.exit_code == 0, res.output
        res = invoke("run", SCENARIO, "--tau-base", 0.1, "--out", b)
        assert res.exit_code == 0, res.output
        for rel in files_of(a):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_aggregate_episode_count(self, tmp_path):
        out = tmp_path / "run"
        invoke("run", SCENARIO, "--episodes", 3, "--out", out)
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["episodes"] == 3

    def test_flag_overrides_config_file(self, tmp_path):
        # config requests heavy base lag; the flag restores instant tracking
        cfg = tmp_path / "config.yaml"
        base = to_dict(Config())
        base["tracking"]["tau_base"] = 0.5
        cfg.write_text(yaml.safe_dump(base))
        out_cfg = tmp_path / "lagged"
        out_flag = tmp_path / "instant"
        invoke("run", SCENARIO, "--config", cfg, "--out", out_cfg)
        invoke("run", SCENARIO, "--config", cfg, "--tau-base", 0.0,
               "--out", out_flag)
        lag = json.loads((out_cfg / "aggregate.json").read_text())
        instant = json.loads((out_flag / "aggregate.json").read_text())
        assert lag["e_x"] > 0.0
        assert instant["e_x"] == 0.0
        manifest = json.loads((out_flag / "manifest.json").read_text())
        assert manifest["tracking"]["tau_base"] == 0.0

    def test_invalid_scenario_config_exit(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"name": "x"}))
        res = invoke("run", bad, "--out", tmp_path / "o")
        assert res.exit_code == 3

    def test_usage_error_exit(self, tmp_path):
        res = invoke("run", SCENARIO, "--episodes", 0, "--out", tmp_path / "o")
        assert res.exit_code == 2
        res = invoke("run", SCENARIO, "--dt", -0.1, "--out", tmp_path / "o")
        assert res.exit_code == 2

    @pytest.mark.parametrize("args, code, names", BAD_NUMBERS)
    def test_bad_number_rejected(self, tmp_path, args, code, names):
        if args[0] == "--config":
            path = tmp_path / "bad.yaml"
            path.write_text(args[1])
            args = ("--config", path)
        res = invoke("run", SCENARIO, "--episodes", 2, *args, "--out", tmp_path / "o")
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, SystemExit)
        assert names in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "o").exists()


# malformed copies of the bundled scenario, each with the location its
# message must name (after the file name)
MALFORMED_SCENARIOS = [
    pytest.param(lambda d: d["objects"][0].pop("position"), "objects[0].position",
                 id="object_without_position"),
    pytest.param(lambda d: d.update(robot_start=[0, 0, 0]), "robot_start",
                 id="robot_start_list"),
    pytest.param(lambda d: d["robot_start"].update(position=[0.0, 0.0, 0.5]),
                 "robot_start.position[2]", id="robot_start_above_terrain"),
    pytest.param(lambda d: d.update(plan=5), "plan", id="plan_not_list"),
    pytest.param(lambda d: d.update(horizon="abc"), "horizon", id="horizon_not_number"),
    pytest.param(lambda d: d["objects"].__setitem__(0, "apple"), "objects[0]",
                 id="object_as_string"),
    pytest.param(lambda d: d["objects"][0].update(
        joint={"value": "a", "min": 0, "max": 1, "goal": 1}),
                 "objects[0].joint.value", id="joint_value_not_number"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].update(point="ab"),
                 "plan[0].monitors[0].point", id="monitor_point_string"),
    pytest.param(lambda d: d["plan"][1]["grounding"].update(offset=[0, 0]),
                 "plan[1].grounding.offset", id="grounding_offset_short"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].pop("threshold"),
                 "plan[0].monitors[0].threshold", id="robot_near_without_threshold"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].pop("point"),
                 "plan[0].monitors[0].point", id="robot_near_without_point"),
    pytest.param(lambda d: d["plan"][3]["monitors"][0].pop("other"),
                 "plan[3].monitors[0].other", id="relative_pose_without_other"),
    # a field the monitor's kind never reads
    pytest.param(lambda d: d["plan"][1]["monitors"][0].update(point=[5, 5, 0]),
                 "plan[1].monitors[0].point", id="attached_with_point"),
    pytest.param(lambda d: d["plan"][1]["monitors"][0].update(threshold=0.3),
                 "plan[1].monitors[0].threshold", id="attached_with_threshold"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].update(object="cart"),
                 "plan[0].monitors[0].object", id="robot_near_with_object"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].update(other="apple"),
                 "plan[0].monitors[0].other", id="robot_near_with_other"),
    pytest.param(lambda d: d["plan"][1]["monitors"][0].update(kind="joint_open"),
                 "plan[1].monitors[0].object", id="joint_monitor_on_rigid_object"),
    pytest.param(lambda d: d["plan"][0].update(waypoint=[2.0, 0.0]), "plan[0].waypoint",
                 id="waypoint_short"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].update(point=[2.0]),
                 "plan[0].monitors[0].point", id="monitor_point_short"),
    pytest.param(lambda d: d["plan"][0]["monitors"][0].update(completed=True),
                 "plan[0].monitors[0].completed", id="monitor_sets_latch"),
    pytest.param(lambda d: d.update(seed=7.9), "seed", id="seed_not_int"),
    pytest.param(lambda d: d.update(speed=3), "speed", id="unknown_top_level_key"),
    pytest.param(lambda d: d["objects"][0].update(colour="red"), "objects[0].colour",
                 id="unknown_object_key"),
    # an object is a point with an axis-aligned box: no orientation to set
    pytest.param(lambda d: d["objects"][0].update(yaw=0.5), "objects[0].yaw",
                 id="object_yaw"),
    pytest.param(lambda d: d["static_obstacles"][0].update(max=[0.7, -0.9, 0.5]),
                 "static_obstacles[0].max", id="box_inverted"),
    pytest.param(lambda d: d["plan"][0].update(grounding={"offset": [0.5, 0.0, 0.0]}),
                 "plan[0].grounding", id="grounding_on_navigate"),
    pytest.param(lambda d: d["objects"][0].update(
        joint={"value": 0.0, "min": 0.0, "max": 0.35, "goal": 0.9}),
                 "objects[0].joint.goal", id="joint_goal_past_max"),
    pytest.param(lambda d: d["objects"][0].update(
        joint={"value": 0.0, "min": 0.35, "max": 0.0, "goal": 0.3}),
                 "objects[0].joint.max", id="joint_max_below_min"),
    pytest.param(lambda d: d["objects"][0].update(size=[0.08, -0.08, 0.08]),
                 "objects[0].size", id="object_size_negative"),
    # the grasp solver normalises every axis it is given
    pytest.param(lambda d: d["objects"][0].update(surface_normal=[0, 0, 0]),
                 "objects[0].surface_normal", id="object_zero_surface_normal"),
    pytest.param(lambda d: d["plan"][1]["grounding"].update(dominant_axis=[0, 0, 0]),
                 "plan[1].grounding.dominant_axis", id="grounding_zero_dominant_axis"),
    # the grid grows to cover every scene point: |x| and |y| stop at 100 m
    # (each row sits just past it, so a broken guard builds a small grid)
    pytest.param(lambda d: d["robot_start"].update(position=[100.5, 0.0, 0.0]),
                 "robot_start.position", id="robot_start_past_bound"),
    pytest.param(lambda d: d["objects"][1].update(position=[2.0, -100.5, 0.25]),
                 "objects[1].position", id="object_past_bound"),
    # and |z|: fusion voxelises object points, whose voxel index a huge z
    # overflows
    pytest.param(lambda d: d["objects"][0].update(position=[2.0, 0.0, 1.0e300]),
                 "objects[0].position", id="object_z_past_bound"),
    pytest.param(lambda d: d["static_obstacles"][0].update(min=[-100.5, -1.6, 0.0]),
                 "static_obstacles[0].min", id="box_min_past_bound"),
    pytest.param(lambda d: d["static_obstacles"][0].update(max=[1.3, 100.5, 0.5]),
                 "static_obstacles[0].max", id="box_max_past_bound"),
    pytest.param(lambda d: d["plan"][0].update(waypoint=[100.5, 0.0, 0.1]),
                 "plan[0].waypoint", id="waypoint_past_bound"),
    pytest.param(lambda d: d["plan"][4].update(waypoint=[-1.5, -100.5, 0.0]),
                 "plan[4].waypoint", id="drag_waypoint_past_bound"),
    # the base stands on the terrain: |terrain_height| stops at 100 m too
    pytest.param(lambda d: d.update(terrain_height=1.0e300), "terrain_height",
                 id="terrain_height_past_bound"),
    pytest.param(lambda d: d.update(terrain_height=-1.0e300), "terrain_height",
                 id="terrain_height_below_bound"),
    # the cart sits at x = 2.0, so its drop point lands at x = 100.5
    pytest.param(lambda d: d["objects"][1].update(container_offset=[98.5, 0.0, 0.3]),
                 "objects[1].container_offset", id="container_offset_past_bound"),
    # `run` writes episodes to <out>/<name>/, so a name is one plain path
    # component that no run file takes
    *[pytest.param(lambda d, n=name: d.update(name=n), "name", id=f"name_{case}")
      for case, name in [("empty", ""), ("dot", "."), ("dotdot", ".."),
                         ("slash", "a/b"), ("backslash", "a\\b"), ("nul", "a\0b"),
                         ("aggregate_json", "aggregate.json"),
                         ("manifest_json", "manifest.json")]],
]


class TestValidate:
    def test_ok(self):
        res = invoke("validate", SCENARIO)
        assert res.exit_code == 0
        assert "ok" in res.output

    @pytest.mark.parametrize("height", [100.0, -100.0])
    def test_terrain_height_at_bound_runs(self, tmp_path, height):
        scenario = scenario_with(tmp_path, lambda d: d.update(terrain_height=height))
        assert invoke("validate", scenario).exit_code == 0
        res = invoke("run", scenario, "--out", tmp_path / "o")
        assert res.exit_code == 0, res.output
        assert (tmp_path / "o" / "cart_delivery" / "episode_0" / "trace.csv").exists()

    def test_invalid(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        data = yaml.safe_load(SCENARIO.read_text())
        data["objects"][0].pop("id")
        bad.write_text(yaml.safe_dump(data))
        res = invoke("validate", bad)
        assert res.exit_code == 3
        assert "objects[0]" in res.output

    @pytest.mark.parametrize("edit, where", MALFORMED_SCENARIOS)
    def test_malformed_scenario(self, tmp_path, edit, where):
        bad = scenario_with(tmp_path, edit)
        for res in (invoke("validate", bad),
                    invoke("run", bad, "--out", tmp_path / "o")):
            assert res.exit_code == 3, res.output
            assert isinstance(res.exception, SystemExit)
            assert f"edited.yaml.{where}:" in res.output
            assert "Traceback" not in res.output
        assert not (tmp_path / "o").exists()

    def _rejected_by_both(self, tmp_path, edit, where):
        bad = scenario_with(tmp_path, edit)
        res = invoke("validate", bad)
        assert res.exit_code == 3
        assert where in res.output
        out = tmp_path / "o"
        res = invoke("run", bad, "--episodes", 2, "--jobs", 2, "--out", out)
        assert res.exit_code == 3
        assert where in res.output
        assert not out.exists()

    def test_objects_fused_into_one_node(self, tmp_path):
        # a second "red apple" 2 cm from the first fuses into its instance
        # node, and `pick apple` would grasp whichever object the node kept
        def edit(d):
            d["objects"].append({"id": "apple2", "label": "red apple",
                                 "position": [2.02, 0.0, 0.1]})
        self._rejected_by_both(tmp_path, edit, "edited.yaml.objects[2]: object 'apple2' "
                                               "fuses with 'apple' into one instance node")

    def test_unknown_monitor_kind(self, tmp_path):
        def edit(d):
            d["plan"][0]["monitors"][0]["kind"] = "robot_close"
        self._rejected_by_both(tmp_path, edit, "plan[0].monitors[0].kind")

    # a key nothing reads is rejected, not ignored: the old layout's top-level
    # `monitors` and `grounding`, an object's `yaw`, and a plan step field its
    # kind never reads
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d.update(monitors=[{
            "name": "reach_apple", "kind": "robot_near", "step": 0,
            "point": [2.0, 0.0, 0.0], "threshold": 1.2}]),
                     "monitors: unknown key", id="top_level_monitors"),
        pytest.param(lambda d: d.update(grounding={"1": {"offset": [0.0, 0.0, 0.0]}}),
                     "grounding: unknown key", id="top_level_grounding"),
        pytest.param(lambda d: d["objects"][0].update(yaw=0.5),
                     "objects[0].yaw: unknown key", id="object_yaw"),
        pytest.param(lambda d: d["plan"][0].update(target="cart"),
                     "plan[0].target: navigate never reads it", id="navigate_with_target"),
        pytest.param(lambda d: d["plan"][1].update(waypoint=[2.0, 0.0, 0.1]),
                     "plan[1].waypoint: pick never reads it", id="pick_with_waypoint"),
        pytest.param(lambda d: d["plan"][3].update(waypoint=[2.0, 2.0, 0.25]),
                     "plan[3].waypoint: place never reads it", id="place_with_waypoint"),
        pytest.param(lambda d: d["plan"][3].update(kind="push_pull", waypoint=[2.0, 2.0, 0.25]),
                     "plan[3].waypoint: push_pull never reads it",
                     id="push_pull_with_waypoint"),
        pytest.param(lambda d: d["plan"][4].update(grounding={}),
                     "plan[4].grounding: drag never reads it", id="drag_with_grounding"),
    ])
    def test_key_never_read(self, tmp_path, edit, message):
        self._rejected_by_both(tmp_path, edit, f"edited.yaml.{message}")

    # a monitor belongs to the step that holds it, so a `step` left over from
    # the old layout is an unknown key, whatever its value
    @pytest.mark.parametrize("step", [
        pytest.param(lambda plan: 1, id="in_range"),
        pytest.param(lambda plan: -1, id="negative"),
        pytest.param(len, id="len_plan"),
        pytest.param(lambda plan: True, id="bool"),
        pytest.param(lambda plan: "2", id="string"),
    ])
    def test_bad_monitor_step(self, tmp_path, step):
        def edit(d):
            d["plan"][1]["monitors"][0]["step"] = step(d["plan"])
        self._rejected_by_both(tmp_path, edit,
                               "edited.yaml.plan[1].monitors[0].step: unknown key")

    def test_monitor_action_key_rejected(self, tmp_path):
        # a monitor's bucket is its plan step's kind; it no longer names one
        def edit(d):
            d["plan"][1]["monitors"][0]["action"] = "pick"
        self._rejected_by_both(tmp_path, edit,
                               "edited.yaml.plan[1].monitors[0].action: unknown key")

    def test_unknown_plan_kind(self, tmp_path):
        def edit(d):
            d["plan"][2]["kind"] = "teleport"
        self._rejected_by_both(tmp_path, edit, "plan[2].kind")

    # each plan here would fail decompose() at the start of every episode
    @pytest.mark.parametrize("edit, where", [
        pytest.param(lambda d: d.update(plan=[]), "plan: plan is empty", id="empty"),
        pytest.param(lambda d: d["plan"][1].pop("target"),
                     "plan[1].target: pick needs a target", id="pick_no_target"),
        pytest.param(lambda d: d["plan"][0].pop("waypoint"),
                     "plan[0].waypoint: navigate needs a waypoint", id="navigate_no_waypoint"),
        pytest.param(lambda d: d["plan"][4].pop("waypoint"),
                     "plan[4].waypoint: drag needs a waypoint", id="drag_no_waypoint"),
        pytest.param(lambda d: d["plan"][2].update(description=" "),
                     "plan[2].description", id="blank_description"),
        pytest.param(lambda d: d.update(instruction=" "), "instruction",
                     id="blank_instruction"),
    ])
    def test_plan_that_cannot_start(self, tmp_path, edit, where):
        self._rejected_by_both(tmp_path, edit, where)

    # each step here would fail when it ran, not when the episode started
    @pytest.mark.parametrize("edit, where", [
        pytest.param(lambda d: d["plan"][3].update(kind="push_pull"),
                     "plan[3].target: push_pull needs an object with a joint",
                     id="push_pull_no_joint"),
        pytest.param(lambda d: (d["plan"][4].pop("target"),
                                d["objects"][1].update(type="container")),
                     "plan[4].target: a drag without a target needs a draggable object",
                     id="drag_nothing_draggable"),
    ])
    def test_step_that_cannot_run(self, tmp_path, edit, where):
        self._rejected_by_both(tmp_path, edit, where)


# sha256 of every file `run scenarios/cart_delivery.yaml --seed 0 --episodes 3`
# writes, run from the repository root (the manifest records the path as given).
# A change that moves one of these must say which bytes moved and why.
NOISE_FREE_TRACE = "e6ebb0e7524d07ad4165f31e0ce285368d1a514747298b06cb3b060bb022ba37"
GOLDEN = {
    (): {
        "aggregate.json": "09cdfeb45dcd37fcd5a4776cee03d9bc072fb144584ae22bbb69cef95fb8b580",
        "cart_delivery/episode_0/trace.csv": NOISE_FREE_TRACE,
        "cart_delivery/episode_1/trace.csv": NOISE_FREE_TRACE,
        "cart_delivery/episode_2/trace.csv": NOISE_FREE_TRACE,
        "cart_delivery/episode_0/report.json":
            "e958d18235e6ec0c6cefaad94d114e07cae7e8ba82d2f5d8baa28fba5bd575a8",
        "cart_delivery/episode_1/report.json":
            "282be9d4987b8ab73b9a73daff09d57eb3cab4af02f1cfc072440998995e73f9",
        "cart_delivery/episode_2/report.json":
            "ab163122b6d6d8a6c1eb3f1a4e8d2ffda2a12752ccb8a8fbbcbe4eab7b464d24",
        "manifest.json": "0d4e9c240ff77f06599c465a85541bc29ebd6df2dbe83c95150e5a9460e433d1",
    },
    NOISY: {
        "aggregate.json": "e032bcbc956149d9b47e48e0a52a8afb6cf4d77377519ef39025a00f90381fdf",
        "cart_delivery/episode_0/trace.csv":
            "849fa237e078be65db94c36557f912e90351f054088b6502e4841d2983460398",
        "cart_delivery/episode_1/trace.csv":
            "26bd84ac66e964007ed84326671f912af80223fa40a0e8b969f4227677d55a9a",
        "cart_delivery/episode_2/trace.csv":
            "7282de417e2dcf7e53d71fb6fa5034769380c99d86ee812aa72c9e0057de4308",
        "cart_delivery/episode_0/report.json":
            "214fb6ed4c7499ef461b11cb1159ada937211d5fb90f9f9329dac041e543ca26",
        "cart_delivery/episode_1/report.json":
            "a81872d64e23ca42b8fa700e87bf194016764f948c61f7953c57c55ed486a81a",
        "cart_delivery/episode_2/report.json":
            "3bcea986153e47187d4b73a603aa6802e49ed75af26d1939ea22982f17e6e1f3",
        "manifest.json": "09c68bcc7e09f762af3302661a5b27c0d2664ada95ccf1539893e8ce42528cd8",
    },
}


# The same for `run scenarios/drawer_and_crate.yaml --seed 0 --episodes 2`, a
# scenario that reaches what cart_delivery does not: a push_pull of an
# articulated object under a joint_open monitor, a drag with no target, a
# navigate that times out at the horizon and a step left "horizon exhausted".
EDGE_TRACE = "67fada878922b64f6ff8603a024459c5842acac06dd74221bf42241728397959"
GOLDEN_EDGE = {
    (): {
        "aggregate.json": "4aa7a7824d9f992bd2924df4c99f14c48625280929a67b2dfa98401ac0997a83",
        "drawer_and_crate/episode_0/trace.csv": EDGE_TRACE,
        "drawer_and_crate/episode_1/trace.csv": EDGE_TRACE,
        "drawer_and_crate/episode_0/report.json":
            "b03ca079ce657921e282f35937af07d069b386b33ddb862651e6c288c8cc1e43",
        "drawer_and_crate/episode_1/report.json":
            "a5beb97549e7a357f8a211915c1db8e46a66314c095cd634cd651002552a7c5b",
        "manifest.json": "5619c60c73bda8763bed0ff46f6957b7cd09d8e54989462eb38076d6f7896a54",
    },
    NOISY: {
        "aggregate.json": "7e532dcf37b31cc92d857585bd0c46c6cca5433132aa35ab4c98aa35eb216c4b",
        "drawer_and_crate/episode_0/trace.csv":
            "42a077897babede5d8d2e30915964ca6897b95f2830cadb42adc3dc5598c05cc",
        "drawer_and_crate/episode_1/trace.csv":
            "28ce560c436611d8ba1f115b5fa9c22c4386c4aec62d8872f48452ab523702a0",
        "drawer_and_crate/episode_0/report.json":
            "dd23f5e146c6257a482b992b9a867c29d145af7d5a8d1f8da49946ac30bfb642",
        "drawer_and_crate/episode_1/report.json":
            "735bd93221b6ebbccda4dd6aebe1f7a684c31a6d4f73bafdd514472e39d254e3",
        "manifest.json": "997536696218c76d2edacfd0efb9c2600a1d9892e24a094b3602710f253db756",
    },
}


# The same for `run scenarios/missed_grasp.yaml --seed 0 --episodes 2`: a pick
# whose grounding offset makes it record `grasp missed: …`, then a push_pull
# cut off by the horizon (`articulation timeout`) under a joint_closed monitor.
MISS_TRACE = "d26972d14445f9b074fed2c895fcd1004214a7e693c3f08e2a744a72083e9ab0"
GOLDEN_MISS = {
    (): {
        "aggregate.json": "624ee872e4279d2c0756206632d20afb33a9c4fb7286676ee155e25d0b455a09",
        "missed_grasp/episode_0/trace.csv": MISS_TRACE,
        "missed_grasp/episode_1/trace.csv": MISS_TRACE,
        "missed_grasp/episode_0/report.json":
            "5ab3444412ab39bb352d7562e90e153879309308a3361360a001faed6be36149",
        "missed_grasp/episode_1/report.json":
            "ed344a66d634f05e626487fc2809d54337f3b94663866e3cc2e65f217688ff86",
        "manifest.json": "63a4255bcd76292fc0f164d6b2992ae7b454b89f859b06e99f1be06d217e36c0",
    },
    NOISY: {
        "aggregate.json": "9d86cb9b5a681d26a8e98a08b01e1a3aeed6379ad8df1da573a217d2456667dd",
        "missed_grasp/episode_0/trace.csv":
            "2c1a9efc962bc1994077f18f3c6e62e722b5942576608c4a7cb4f07c8dc8c4c0",
        "missed_grasp/episode_1/trace.csv":
            "13b8f1403e1e23a763c17927ef37adb8c9e7153313854be8c08fc64c4881bfbf",
        "missed_grasp/episode_0/report.json":
            "0ae15ee3584a958e5c6d700f01b341ba7b09ff38bfe56695ff336cabc6e83b30",
        "missed_grasp/episode_1/report.json":
            "a3770b85116fa950cb098d6df8060b2133d2bed84cb99c315c5246e2d1bc0981",
        "manifest.json": "46720a2efd351236481cc652f13f04b6dcd3c7a0a1204ec017283f0b92fe37d6",
    },
}


def run_digests(tmp_path, scenario, episodes, jobs, flags):
    out = tmp_path / "run"
    res = invoke("run", scenario, "--seed", 0, "--episodes", episodes,
                 "--jobs", jobs, *flags, "--out", out)
    assert res.exit_code == 0, res.output
    return {str(rel): hashlib.sha256((out / rel).read_bytes()).hexdigest()
            for rel in files_of(out)}


class TestGoldenDigest:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("flags", list(GOLDEN), ids=["noise_free", "noisy"])
    def test_run_artefacts_pinned(self, tmp_path, monkeypatch, flags, jobs):
        monkeypatch.chdir(ROOT)
        digests = run_digests(tmp_path, "scenarios/cart_delivery.yaml", 3, jobs, flags)
        assert digests == GOLDEN[flags]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("flags", list(GOLDEN_EDGE), ids=["noise_free", "noisy"])
    def test_edge_artefacts_pinned(self, tmp_path, monkeypatch, flags, jobs):
        monkeypatch.chdir(ROOT)
        digests = run_digests(tmp_path, "scenarios/drawer_and_crate.yaml", 2, jobs, flags)
        assert digests == GOLDEN_EDGE[flags]
        report = json.loads((tmp_path / "run" / "drawer_and_crate" / "episode_0"
                             / "report.json").read_text())
        assert [o["detail"] for o in report["outcomes"]] == [
            "", "", "navigation timeout", "horizon exhausted"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("flags", list(GOLDEN_MISS), ids=["noise_free", "noisy"])
    def test_missed_grasp_artefacts_pinned(self, tmp_path, monkeypatch, flags, jobs):
        monkeypatch.chdir(ROOT)
        digests = run_digests(tmp_path, "scenarios/missed_grasp.yaml", 2, jobs, flags)
        assert digests == GOLDEN_MISS[flags]
        report = json.loads((tmp_path / "run" / "missed_grasp" / "episode_0"
                             / "report.json").read_text())
        details = [o["detail"] for o in report["outcomes"]]
        assert details[0].startswith("grasp missed: pos_err=0.12")
        assert details[1:] == ["articulation timeout"]


@pytest.mark.parametrize("flags", [(), NOISY], ids=["noise_free", "noisy"])
@pytest.mark.parametrize("name", ["cart_delivery", "drawer_and_crate", "missed_grasp"])
def test_report_errors_are_trace_means(tmp_path, name, flags):
    """report.json's e_x, e_y and e_w are the means of |cmd - act| over the
    trace.csv rows whose command is not all zero, added in row order."""
    out = tmp_path / "run"
    res = invoke("run", ROOT / "scenarios" / f"{name}.yaml", "--seed", 0, *flags,
                 "--out", out)
    assert res.exit_code == 0, res.output
    episode = out / name / "episode_0"
    with open(episode / "trace.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    report = json.loads((episode / "report.json").read_text())
    commanded = [r for r in rows if (r["cmd_vx"], r["cmd_vy"], r["cmd_w"]) != (0, 0, 0)]
    assert bool(commanded) == (name != "missed_grasp")  # it never moves the base
    for key, axis in (("e_x", "vx"), ("e_y", "vy"), ("e_w", "w")):
        total = 0.0
        for r in commanded:
            total += abs(r[f"cmd_{axis}"] - r[f"act_{axis}"])
        assert report[key] == (total / len(commanded) if commanded else 0.0), key
    assert (report["e_x"] > 0.0) == bool(flags and commanded)  # only a lagged base errs


def test_failed_steps_without_monitors_fail(tmp_path):
    """A step without monitors is scored by its outcome: missed_grasp with
    its monitors dropped fails both steps, and so the episode."""
    data = yaml.safe_load((ROOT / "scenarios" / "missed_grasp.yaml").read_text())
    for step in data["plan"]:
        del step["monitors"]
    scenario = tmp_path / "missed_grasp.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "run"
    res = invoke("run", scenario, "--seed", 0, "--out", out)
    assert res.exit_code == 0, res.output
    report = json.loads((out / "missed_grasp" / "episode_0" / "report.json").read_text())
    assert [o["success"] for o in report["outcomes"]] == [False, False]
    assert {kind: (entry["completed"], entry["total"])
            for kind, entry in report["per_action"].items()} == {
        "pick": (0, 1), "push_pull": (0, 1)}
    assert report["overall"] is False
    assert json.loads((out / "aggregate.json").read_text())["overall"] == 0.0


@pytest.mark.parametrize("command, out", [
    ("run", "afile"), ("run", "afile/run"), ("run", "taken"),
    ("export-grid", "afile/map"), ("rewards", "afile/terms.csv"),
])
def test_unwritable_out_io_exit(tmp_path, command, out):
    (tmp_path / "afile").write_text("")
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "cart_delivery").write_text("")  # where run's episodes go
    timeline = tmp_path / "timeline.csv"
    timeline.write_text(CONTACTS + "\n0.02,1,1,1,1\n")
    source = timeline if command == "rewards" else SCENARIO
    res = invoke(command, source, "--out", tmp_path / out)
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: cannot write" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("failing", ["episode_1", "episode_0"])
def test_episode_write_error_jobs_io_exit(tmp_path, monkeypatch, failing):
    # the episode may run in this process or in the forked worker, which
    # inherits the patch; either way the error reaches the one boundary
    assert cli._start_method() == "fork"
    write = cli.write_trace_csv

    def write_or_fail(trace, path):
        if path.parent.name == failing:
            raise OSError("disk full")
        write(trace, path)

    monkeypatch.setattr(cli, "write_trace_csv", write_or_fail)
    res = invoke("run", SCENARIO, "--episodes", 2, "--jobs", 2, "--out", tmp_path / "o")
    assert res.exit_code == 4, res.output
    assert "error: cannot write" in res.output and "disk full" in res.output
    assert "Traceback" not in res.output
    assert multiprocessing.active_children() == []


def test_lost_worker_io_exit(tmp_path, monkeypatch):
    # this process holds one episode until the worker has claimed the other
    # and died on it without sending a report
    assert cli._start_method() == "fork"
    parent, run_one = os.getpid(), cli._run_one

    def run_or_die(task):
        if os.getpid() != parent:
            os._exit(9)
        for child in multiprocessing.active_children():
            child.join(timeout=60)
        return run_one(task)

    monkeypatch.setattr(cli, "_run_one", run_or_die)
    res = invoke("run", SCENARIO, "--episodes", 2, "--jobs", 2, "--out", tmp_path / "o")
    assert res.exit_code == 4, res.output
    (line,) = res.output.splitlines()
    assert line.startswith("error: ") and "(exit code 9)" in line
    assert multiprocessing.active_children() == []


def test_runners_claim_each_episode_once(tmp_path, monkeypatch):
    # more runners than cores race for many short episodes; a lost update to
    # the shared counter would run an episode twice and another never
    assert cli._start_method() == "fork"
    claims = tmp_path / "claims"
    scenario, instances = cli._load_runnable(SCENARIO)
    report = cli._run_one((scenario, 0, tmp_path / "one", 0.02, 4, Config(), instances))

    def claim(task):
        with open(claims, "a") as fh:  # one short append: atomic across processes
            fh.write(f"{task[1]}\n")
        return report

    monkeypatch.setattr(cli, "_run_one", claim)
    res = invoke("run", SCENARIO, "--episodes", 300, "--jobs", 4, "--out", tmp_path / "o")
    assert res.exit_code == 0, res.output
    assert sorted(map(int, claims.read_text().split())) == list(range(300))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_instance_graph_built_once_per_scenario(tmp_path, monkeypatch, jobs):
    # `run` builds each scenario's instance graph once, in this process, to
    # validate it, and every episode reads that one; a forked worker builds
    # none. The bytes are those of episodes that build their own graphs.
    assert cli._start_method() == "fork"
    builds, build = tmp_path / "builds", harness.build_instance_graph

    def counted(scenario, where="scenario"):
        with open(builds, "a") as fh:  # one short append: atomic across processes
            fh.write(f"{os.getpid()} {scenario.name}\n")
        return build(scenario, where)

    for module in (cli, harness):
        monkeypatch.setattr(module, "build_instance_graph", counted)
    paths = [SCENARIO, ROOT / "scenarios" / "drawer_and_crate.yaml"]
    args = ("run", *paths, "--seed", 4, "--episodes", 3, "--jobs", jobs, *NOISY)
    res = invoke(*args, "--out", tmp_path / "shared")
    assert res.exit_code == 0, res.output
    assert builds.read_text().splitlines() == [f"{os.getpid()} cart_delivery",
                                               f"{os.getpid()} drawer_and_crate"]
    run_episode = cli.run_episode
    monkeypatch.setattr(cli, "run_episode", lambda *a, instances, **kw: run_episode(*a, **kw))
    res = invoke(*args, "--out", tmp_path / "own")
    assert res.exit_code == 0, res.output
    assert len(builds.read_text().splitlines()) == 2 + 2 + 2 * 3
    a, b = tmp_path / "shared", tmp_path / "own"
    assert files_of(a) == files_of(b)
    for rel in files_of(a):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


# every command, with `{}` for the input file it reads and `{out}` for its --out
READERS = {
    "validate": ("validate", "{}"),
    "run": ("run", "{}", "--out", "{out}"),
    "run_config": ("run", SCENARIO, "--config", "{}", "--out", "{out}"),
    "export_grid": ("export-grid", "{}", "--out", "{out}/map"),
    "rewards": ("rewards", "{}", "--out", "{out}/terms.csv"),
    "rewards_config": ("rewards", "{timeline}", "--config", "{}", "--out", "{out}/terms.csv"),
}
# input file cases: (exit code, bytes of the file, or None for no file)
BAD_INPUTS = {
    "missing": (4, None),
    "directory": (4, None),
    "not_utf8": (3, b"\xff\xfe"),
    "malformed": (3, b"name: [x\n"),  # a timeline gets a row without contacts
}


@pytest.mark.parametrize("command", list(READERS))
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exit(tmp_path, command, case):
    code, content = BAD_INPUTS[case]
    timeline = tmp_path / "timeline.csv"
    timeline.write_text(CONTACTS + "\n0.02,1,1,1,1\n")
    path = tmp_path / "input"
    if case == "malformed" and command == "rewards":
        content = b"t,contact_FL\n0.02,1\n"
    if content is not None:
        path.write_bytes(content)
    elif case == "directory":
        (path / "sub.yaml").mkdir(parents=True)  # `run` reads a directory's *.yaml
        path = path if command == "run" else path / "sub.yaml"
    out = tmp_path / "o"
    res = invoke(*(str(a).format(path, out=out, timeline=timeline) for a in READERS[command]))
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    (line,) = res.output.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert "Traceback" not in res.output
    assert not out.exists()


def test_import_leaves_scipy_unloaded():
    # scipy.spatial is most of a cold start, and only a detection that passes
    # fusion's semantic test needs it; the worker processes only `run --jobs N>1`,
    # and no part of `concurrent.futures` ever
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, locoman.cli; print([m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')])")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout == "[]\n"


def test_duplicate_scenario_name_config_exit(tmp_path):
    twin = tmp_path / "twin.yaml"
    twin.write_bytes(SCENARIO.read_bytes())
    out = tmp_path / "o"
    res = invoke("run", SCENARIO, twin, *NOISY, "--jobs", 2, "--out", out)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"{twin}.name: 'cart_delivery' is also the name of {SCENARIO}" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_scenarios_load_through_cli_load_scenario(tmp_path, monkeypatch, command):
    # the benchmark tracer times `locoman.cli.load_scenario`
    calls = []
    load = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda p: calls.append(p) or load(p))
    if command == "run":
        data = yaml.safe_load(SCENARIO.read_text())
        paths = []
        for name in ("alpha", "beta"):
            data["name"] = name
            paths.append(tmp_path / f"{name}.yaml")
            paths[-1].write_text(yaml.safe_dump(data))
        res = invoke("run", *paths, "--episodes", 2, "--out", tmp_path / "o")
    else:
        paths = [SCENARIO]
        res = invoke("validate", SCENARIO)
    assert res.exit_code == 0, res.output
    assert calls == paths


class TestExportGrid:
    def test_writes_raster_pair(self, tmp_path):
        res = invoke("export-grid", SCENARIO, "--out", tmp_path / "map")
        assert res.exit_code == 0
        raw = (tmp_path / "map.pgm").read_bytes()
        assert raw.startswith(b"P5\n")
        assert "resolution" in (tmp_path / "map.hdr").read_text()


def full_timeline(path):
    """200 rows with every optional velocity column, some optional term
    columns, and empty cells that read 0."""
    rows = [CONTACTS + ",cmd_vx,act_vx,cmd_vy,act_vy,cmd_w,act_w,"
            "ee_pos,torque_arm,smooth"]
    for k in range(200):
        t = 0.02 * (k + 1)
        diag_a = int((t * 1.5) % 1.0 < 0.5)
        stance = int(k % 37 < 5)
        act_vx = 0.6 * (1.0 - 0.9 ** k)
        ee_pos = "" if k % 7 == 0 else f"{0.01 * (k % 13)}"
        rows.append(f"{t},{diag_a | stance},{1 - diag_a | stance},"
                    f"{1 - diag_a},{diag_a},0.6,{act_vx},0.1,{0.1 * (k % 3)},"
                    f"-0.25,{-0.25 + 0.001 * k},{ee_pos},{1e-3 * k},")
    path.write_text("\n".join(rows) + "\n")


class TestRewardsCommand:
    def _timeline(self, path):
        rows = ["t,contact_FL,contact_FR,contact_RL,contact_RR,cmd_vx,act_vx"]
        for k in range(100):
            t = 0.02 * (k + 1)
            diag_a = int((t * 2.0) % 1.0 < 0.5)
            rows.append(f"{t},{diag_a},{1 - diag_a},{1 - diag_a},{diag_a},0.5,0.5")
        path.write_text("\n".join(rows) + "\n")

    def test_evaluates_terms(self, tmp_path):
        src = tmp_path / "timeline.csv"
        out = tmp_path / "terms.csv"
        self._timeline(src)
        res = invoke("rewards", src, "--out", out)
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for col in ("t", "track_xy", "track_yaw", "gait", "freq",
                    "torque_arm", "total_stage1", "total_stage2"):
            assert col in header
        last = dict(zip(header, lines[-1].split(",")))
        assert float(last["track_xy"]) == 1.0  # cmd_vx == act_vx throughout

    def test_ideal_trot_gait_settles_at_one(self, tmp_path):
        src = tmp_path / "timeline.csv"
        out = tmp_path / "terms.csv"
        self._timeline(src)
        invoke("rewards", src, "--out", out)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        gait = [float(dict(zip(header, ln.split(",")))["gait"])
                for ln in lines[1:]]
        # once every leg has completed a stint the trot scores exactly 1
        assert all(v == 1.0 for v in gait[-50:])

    def test_empty_timeline_gives_empty_trace(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("t,contact_FL,contact_FR,contact_RL,contact_RR\n")
        out = tmp_path / "o.csv"
        res = invoke("rewards", src, "--out", out)
        assert res.exit_code == 0
        assert out.read_text().splitlines() == ["t"]

    # sha256 of the `rewards` output for the two timelines: the column order,
    # the `repr` cells and the CRLF line ends are all pinned.
    @pytest.mark.parametrize("make, digest", [
        (full_timeline,
         "fb440590b1357b29f0bec4bbb4d9a0d760fc9ec820f286d28f400f7fc0988d95"),
        (lambda p: p.write_text(CONTACTS + "\n"),
         "9e8b03ea3b48312f8e3a15bec7aa85c96a362e2776ac6bc3dfd74a40022bcc8a"),
    ], ids=["full", "header_only"])
    def test_output_bytes_pinned(self, tmp_path, make, digest):
        src, out = tmp_path / "timeline.csv", tmp_path / "terms.csv"
        make(src)
        res = invoke("rewards", src, "--out", out)
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_bad_rows_config_exit(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("t,contact_FL\n0.02,1\n")
        res = invoke("rewards", src, "--out", tmp_path / "o.csv")
        assert res.exit_code == 3

    @pytest.mark.parametrize("text, message", [
        (CONTACTS + ",cmd_vx\n0.02,1,1,1,1,0.5\n0.04,1,1,1,1,abc\n",
         "row 2: column cmd_vx: expected a number, got 'abc'"),
        (CONTACTS + "\n0.02,1,1,1,1\n0.04,1,1,1,1\n0.04,1,1,1,1\n",
         "row 3: column t: 0.04 does not increase on 0.04"),
        (CONTACTS + "\n0.04,1,1,1,1\n0.02,1,1,1,1\n",
         "row 2: column t: 0.02 does not increase on 0.04"),
        (CONTACTS + "\n0.02,1,1,yes,1\n",
         "row 1: column contact_RL: expected 0, 1, false or true, got 'yes'"),
    ], ids=["not_a_number", "repeated_t", "decreasing_t", "contact_not_a_flag"])
    def test_malformed_timeline_config_exit(self, tmp_path, text, message):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        res = invoke("rewards", src, "--out", tmp_path / "o.csv")
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"bad.csv {message}" in res.output
        assert not (tmp_path / "o.csv").exists()
