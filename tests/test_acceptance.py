"""Acceptance gate: nine release criteria, one test (and one pass/fail line)
per criterion. Each criterion is verified against an independent oracle or
against values pinned by hand, not against the implementation under test."""

import heapq
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from locoman.cli import main as cli_main
from locoman.config import Config
from locoman.fusion import geometric_similarity
from locoman.geometry import (Pose, quat_from_axis_angle, quat_geodesic_distance,
                              quat_mul, quat_normalize, unit, vec3)
from locoman.grounding import solve_orientation
from locoman.errors import DegenerateConstraints, NoPath
from locoman.harness import make_rng, run_episode
from locoman.scenario import scenario_from_dict
from locoman.navgrid import (FREE, OCCUPIED, SQRT2, GoalSearchConfig,
                             OccupancyGrid, blocked_mask, find_goal_pose,
                             plan_path)
from locoman.rewards import ContactTimeline, r_freq, r_gait, sync_term, total_reward
from locoman.training import (COMMAND_RANGES, RandomizationConfig, quat_from_euler,
                              sample_ee_target, sample_locomotion_command)
from oracles import cartesian_to_spherical, is_rotation_matrix, path_cost

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "cart_delivery.yaml"
PI = np.pi


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


# -- 1. geodesic distance recovers the applied rotation angle ----------------

def test_criterion_1_geodesic_distance_recovers_angle():
    rng = np.random.Generator(np.random.PCG64(101))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        q = quat_normalize(rng.normal(size=4))
        axis = unit(rng.normal(size=3))
        theta = float(rng.uniform(0.0, PI))
        rotated = quat_mul(q, quat_from_axis_angle(axis, theta))
        worst = max(worst, abs(quat_geodesic_distance(q, rotated) - theta))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    _report(1, f"1000 samples, max |d - theta| = {worst:.2e}, {elapsed * 1e3:.0f} ms")


# -- 2. constrained orientation solver residuals ------------------------------

def test_criterion_2_orientation_solver_residuals():
    rng = np.random.Generator(np.random.PCG64(202))
    worst = 0.0
    for i in range(10_000):
        mode = i % 4
        a = unit(rng.normal(size=3)) if mode in (0, 1) else None
        if mode == 0:
            n0 = rng.normal(size=3)
            n0 = n0 - np.dot(n0, a) * a
            if np.linalg.norm(n0) < 1e-6:
                continue
            n = unit(n0)  # exactly feasible: n perpendicular to a
        elif mode == 2:
            n = unit(rng.normal(size=3))
        else:
            n = None
        approach = unit(rng.normal(size=3))
        R = solve_orientation(a, n, approach)
        assert is_rotation_matrix(R, tol=1e-9)
        if a is not None:
            worst = max(worst, abs(float(R[:, 0] @ a)), abs(float(R[:, 2] @ a)))
        if mode == 0:
            worst = max(worst, abs(abs(float(R[:, 2] @ n)) - 1.0))
        if mode == 2:
            worst = max(worst, abs(abs(float(R[:, 2] @ n)) - 1.0))

    # degeneracy triggers exactly at |n . a| >= 1 - 1e-6
    a = np.array([0.0, 0.0, 1.0])
    for cos_na in (1.0, 1.0 - 1e-6, 1.0 - 1e-6 + 1e-9):
        n = unit(np.array([np.sqrt(max(0.0, 1 - cos_na ** 2)), 0.0, cos_na]))
        with pytest.raises(DegenerateConstraints):
            solve_orientation(a, n, np.array([0.0, 0.0, -1.0]))
    cos_na = 1.0 - 2e-6
    n = unit(np.array([np.sqrt(1 - cos_na ** 2), 0.0, cos_na]))
    solve_orientation(a, n, np.array([0.0, 0.0, -1.0]))  # must not raise
    assert worst < 1e-9
    _report(2, f"10000 inputs, max residual = {worst:.2e}, degeneracy boundary exact")


# -- 3. fusion similarity vs brute force + merge boundary ---------------------

def test_criterion_3_fusion_matches_brute_force():
    from test_fusion import TestMergeBoundary, exact_geometric

    rng = np.random.Generator(np.random.PCG64(303))
    for case in range(500):
        ni, nj = rng.integers(1, 1001, size=2)
        scale = rng.uniform(0.05, 2.0)
        pi = rng.normal(scale=scale, size=(ni, 3))
        pj = rng.normal(scale=scale, size=(nj, 3))
        eps = rng.uniform(0.01, 0.5)
        assert geometric_similarity(pi, pj, eps) == exact_geometric(pi, pj, eps, case)

    boundary = TestMergeBoundary()
    boundary.test_semantic_boundary_strict()
    boundary.test_geometric_boundary_strict()
    boundary.test_both_criteria_required()
    _report(3, "500 pairs equal brute-force oracle; 0.8 thresholds strictly exceeded")


# -- 4. reward fixture values -------------------------------------------------

def test_criterion_4_reward_exact_values():
    from test_rewards import UNIT_TERMS, run_trot, two_legs

    trot = ContactTimeline()
    run_trot(trot, 3.0)
    assert r_gait(trot)[-1] == 1.0

    desync = two_legs((1.0, 0.0), (0.0, 1.0))  # (air, contact) of FL and FR
    assert sync_term(desync, "FL", "FR")[0] == pytest.approx(np.exp(-0.08), abs=1e-12)

    off = ContactTimeline()
    fl = (True, False, False, False)
    off.update([fl, (False,) * 4, fl], 0.5, [0.0, 0.5, 1.0])  # FL at 1 Hz, target 2 Hz
    assert r_freq(off)[-1] == pytest.approx(np.exp(-0.5), abs=1e-12)

    assert total_reward(1, UNIT_TERMS) == pytest.approx(17.5, abs=1e-12)
    with_arm = dict(UNIT_TERMS, torque_arm=1e6)
    assert total_reward(1, with_arm) == total_reward(1, UNIT_TERMS)
    _report(4, "gait=1, sync=e^-0.08, freq=e^-0.5, stage-1 total=17.5, arm-invariant")


# -- 5. command sampling ranges + terrain invariance --------------------------

def test_criterion_5_sampling_ranges_and_invariance():
    n = 100_000
    # base origin at the nominal arm height so base-frame coordinates recover
    # the drawn spherical parameters exactly
    base = Pose(vec3(0.0, 0.0, 0.55), quat_from_euler(0, 0, 0))
    for name in ("train", "eval", "roboduet"):
        ranges = COMMAND_RANGES[name]
        rng = make_rng(505)
        draws = {k: np.empty(n) for k in
                 ("x", "y", "w", "l_ee", "p_ee", "y_ee",
                  "alpha_ee", "beta_ee", "gamma_ee")}
        for i in range(n):
            cmd = sample_locomotion_command(rng, ranges)
            tgt = sample_ee_target(rng, ranges, base)
            sph = cartesian_to_spherical(tgt.position)
            draws["x"][i], draws["y"][i], draws["w"][i] = cmd.x, cmd.y, cmd.w
            draws["l_ee"][i], draws["p_ee"][i], draws["y_ee"][i] = (
                sph.radius, sph.pitch, sph.yaw)
            draws["alpha_ee"][i] = tgt.orientation.roll
            draws["beta_ee"][i] = tgt.orientation.pitch
            draws["gamma_ee"][i] = tgt.orientation.yaw
        for k, vals in draws.items():
            lo_b, hi_b = getattr(ranges, k)
            assert np.all(vals >= lo_b - 1e-9) and np.all(vals <= hi_b + 1e-9)
            if hi_b > lo_b:
                span = hi_b - lo_b
                assert vals.min() <= lo_b + 0.01 * span
                assert vals.max() >= hi_b - 0.01 * span

    ranges = COMMAND_RANGES["train"]
    z_by_pitch = []
    for pitch in (-0.5, 0.0, 0.5):
        rng = make_rng(42)
        tilted = Pose(vec3(0.3, -0.1, 0.35), quat_from_euler(0.0, pitch, 0.7))
        tgt = sample_ee_target(rng, ranges, tilted)
        z_by_pitch.append(tilted.transform(tgt.position)[2])
    spread = max(z_by_pitch) - min(z_by_pitch)
    assert spread <= 1e-9
    _report(5, f"3x100k draws in range, extrema within 1%; world-z spread {spread:.1e}")


# -- 6. A* equals Dijkstra + collision-free outputs ---------------------------

def _dijkstra(blocked, start, goal):
    h, w = blocked.shape
    if blocked[start[1], start[0]] or blocked[goal[1], goal[0]]:
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    moves = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        if cur == goal:
            return d
        done.add(cur)
        for dx, dy, c in moves:
            nx, ny = cur[0] + dx, cur[1] + dy
            if 0 <= nx < w and 0 <= ny < h and not blocked[ny, nx]:
                nd = d + c
                if nd < dist.get((nx, ny), np.inf):
                    dist[(nx, ny)] = nd
                    heapq.heappush(heap, (nd, (nx, ny)))
    return None


def test_criterion_6_astar_matches_dijkstra():
    rng = np.random.Generator(np.random.PCG64(606))
    solved = unreachable = 0
    for trial in range(200):
        g = OccupancyGrid(resolution=0.1, width=20, height=20, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[rng.random((20, 20)) < 0.25] = OCCUPIED
        inflation = 0.12 if trial % 2 else 0.0
        blocked = blocked_mask(g, inflation)
        free = np.argwhere(~blocked)
        if len(free) < 2:
            continue
        start = tuple(free[rng.integers(len(free))][::-1])
        goal = tuple(free[rng.integers(len(free))][::-1])
        oracle = _dijkstra(blocked, start, goal)
        try:
            path = plan_path(g, start, goal, inflation=inflation)
        except NoPath:
            assert oracle is None
            unreachable += 1
            continue
        assert oracle is not None
        assert path_cost(path) == pytest.approx(oracle, abs=1e-9)
        occ_centers = [g.cell_center(x, y)
                       for y, x in np.argwhere(g.cells == OCCUPIED)]
        for cx, cy in path:
            assert not blocked[cy, cx]
            if inflation > 0.0:
                c = g.cell_center(cx, cy)
                for oc in occ_centers:
                    assert np.hypot(*(c - oc)) > inflation
        solved += 1
    assert solved > 50

    # goal-pose search output is collision-free under the same inflation model
    g = OccupancyGrid(resolution=0.1, width=60, height=60, origin_xy=(-3, -3))
    g.cells[:] = FREE
    g.cells[28:33, 28:33] = OCCUPIED
    cfg = GoalSearchConfig()
    goal = find_goal_pose(g, np.array([0.0, 0.0, 0.0]), [], cfg, np.array([0, 0]))
    for y, x in np.argwhere(g.cells == OCCUPIED):
        c = g.cell_center(x, y)
        assert np.hypot(c[0] - goal.position[0], c[1] - goal.position[1]) > cfg.robot_inflation
    _report(6, f"200 grids: {solved} solved equal to Dijkstra, {unreachable} agreed unreachable")


# -- 7. end-to-end protocol with per-action decomposition ---------------------

def test_criterion_7_end_to_end_protocol():
    data = yaml.safe_load(SCENARIO_PATH.read_text())
    t0 = time.perf_counter()
    result = run_episode(scenario_from_dict(data), master_seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert result.metrics.overall is True
    assert all(o.success for o in result.outcomes)
    for kind, entry in result.metrics.per_action.items():
        assert entry.rate == 1.0, kind

    offset_data = yaml.safe_load(SCENARIO_PATH.read_text())
    offset_data["plan"][1]["grounding"] = {"offset": [0.15, 0.0, 0.0]}
    degraded = run_episode(scenario_from_dict(offset_data), master_seed=0)
    assert degraded.metrics.per_action["pick"].rate == 0.0
    assert degraded.metrics.per_action["navigate"].rate == 1.0
    assert degraded.metrics.overall is False
    _report(7, f"clean run all rates 1.0 in {elapsed:.1f} s; "
               "0.15 m offset: pick 0.0, navigate 1.0")


# -- 8. byte-identical reruns -------------------------------------------------

def test_criterion_8_byte_identical_runs(tmp_path):
    runner = CliRunner()
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = runner.invoke(cli_main, ["run", str(SCENARIO_PATH), "--seed", "11",
                                       "--episodes", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        dirs.append(out)
    a, b = dirs
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files, "run produced no artifacts"
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    _report(8, f"{len(files)} artifact files byte-identical across reruns")


# -- 9. config fidelity -------------------------------------------------------

def test_criterion_9_config_fidelity(tmp_path):
    cfg = Config()
    path = tmp_path / "config.yaml"
    cfg.dump(path)
    assert Config.load(path) == cfg

    w = cfg.reward_weights
    expected_weights = {
        "track_xy": (2.75, 2.75), "track_yaw": (1.50, 1.50),
        "ee_pos": (0.0, -1.20), "ee_ori": (0.0, -1.50),
        "gait": (0.75, 0.75), "freq": (12.5, 12.5),
        "torque_base": (-2.0e-4, -2.0e-4), "acc_base": (-2.5e-7, -2.0e-7),
        "power_base": (-2.0e-5, -2.0e-5), "torque_arm": (0.0, -4.0e-4),
        "acc_arm": (0.0, -2.5e-6), "power_arm": (0.0, -2.0e-4),
        "smooth": (-0.02, -0.02),
    }
    for name, values in expected_weights.items():
        assert getattr(w, name) == values, name

    train = COMMAND_RANGES["train"]
    assert train.l_ee == (0.30, 0.65)
    assert train.p_ee == pytest.approx((-0.17 * PI, 0.33 * PI))
    ev = COMMAND_RANGES["eval"]
    assert ev.x == (-1.5, 1.5) and ev.y == (0.0, 0.0) and ev.l_ee == (0.2, 0.8)
    rd = COMMAND_RANGES["roboduet"]
    assert rd.w == (-0.6, 0.6)
    assert rd.gamma_ee == pytest.approx((-0.42 * PI, 0.42 * PI))

    rnd = RandomizationConfig()
    table = {e.parameter: (*e.range, e.method) for e in rnd.entries}
    assert table["friction"] == (0.4, 2.0, "abs")
    assert table["base_mass"] == (-5.0, 5.0, "add")
    assert table["actuator_gains"] == (0.8, 1.2, "scale")
    assert table["ee_link_mass"] == (0.0, 0.2, "add")
    assert table["joint_reset"] == (0.5, 1.5, "scale")
    assert table["base_push_x"] == (-0.5, 0.5, "interval")
    assert table["base_reset_heading"] == (-PI, PI, "add")
    assert (rnd.push_spacing, rnd.push_jitter, rnd.push_duration) == (5.0, 1.0, 0.5)
    assert (cfg.gamma_xy, cfg.gamma_w, cfg.f_target) == (0.25, 0.25, 2.0)
    _report(9, "defaults round-trip and match the transcribed tables field-for-field")
