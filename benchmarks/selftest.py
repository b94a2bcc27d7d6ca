"""Self-test of the benchmark's own reference checks on hand-solved inputs.

    python3 benchmarks/selftest.py

Runs in about a second, needs no locoman, and is kept out of the repository's
test suite. Exits 1 and names every case that fails.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import mapping_replan
import reference as ref
import run
import tracer

FAILURES = []
PASSED = [0]


def expect(name, ok):
    if ok:
        PASSED[0] += 1
    else:
        FAILURES.append(name)


def grid_cases():
    free = np.ones((3, 3), dtype=bool)
    g = ref.grid_graph(free)
    expect("3x3 open grid: corner to corner costs 2*sqrt(2)",
           math.isclose(ref.dijkstra_cost(g, 3, (0, 0), (2, 2)), 2 * math.sqrt(2)))
    free[1, 1] = False
    g = ref.grid_graph(free)
    expect("3x3 grid, centre blocked: corner to corner costs 2 + sqrt(2)",
           math.isclose(ref.dijkstra_cost(g, 3, (0, 0), (2, 2)), 2 + math.sqrt(2)))
    expect("3x3 grid, centre blocked: edge midpoints cost 2*sqrt(2)",
           math.isclose(ref.dijkstra_cost(g, 3, (0, 1), (2, 1)), 2 * math.sqrt(2)))
    walled = np.ones((3, 3), dtype=bool)
    walled[:, 1] = False
    expect("a blocked column disconnects the grid",
           ref.dijkstra_cost(ref.grid_graph(walled), 3, (0, 0), (2, 0)) == math.inf)

    cells = np.ones((7, 7), dtype=np.uint8)
    cells[3, 3] = ref.OCCUPIED
    blocked = ref.reference_blocked(cells, 0.1, 0.30)
    # offsets with dx^2 + dy^2 <= 8; at exactly 3 cells, 3 * 0.1 > 0.30 in
    # floating point, so those four cells stay free
    expect("0.30 m inflation at 0.1 m blocks 25 cells", int(blocked.sum()) == 25)
    expect("a cell 3 cells away stays free", not blocked[3, 0] and not blocked[0, 3])
    expect("a diagonal cell (2, 2) away is blocked", bool(blocked[1, 1]))
    expect("zero inflation blocks only the occupied cell",
           int(ref.reference_blocked(cells, 0.1, 0.0).sum()) == 1)

    blocked = np.zeros((3, 3), dtype=bool)
    blocked[1, 1] = True
    good = [(0, 0), (1, 0), (2, 1), (2, 2)]
    expect("a valid path passes", ref.path_problems(good, (0, 0), (2, 2), blocked) == [])
    expect("a jump between cells is caught",
           ref.path_problems([(0, 0), (2, 0), (2, 1), (2, 2)], (0, 0), (2, 2), blocked) != [])
    expect("a blocked cell is caught",
           ref.path_problems([(0, 0), (1, 1), (2, 2)], (0, 0), (2, 2), blocked) != [])
    expect("wrong end cells are caught", ref.path_problems(good, (0, 0), (2, 1), blocked) != [])
    expect("path cost counts diagonals as sqrt(2)",
           math.isclose(ref.path_cost(good), 2 + math.sqrt(2)))
    expect("floor convention for cells", ref.cell_of(0.05, -0.05, (0.0, 0.0), 0.1) == (0, -1))


def reward_cases():
    xy, yaw = ref.track_xy(0.4, -0.2, 0.4, -0.2), ref.track_yaw(0.7, 0.7)
    expect("zero-error tick tracks perfectly", xy == 1.0 and yaw == 1.0)
    expect("zero-error tick: stage-1 total is the sum of the track weights",
           ref.stage1_total(xy, yaw, 0.0, 0.0) == 2.75 + 1.50)
    expect("perfect tick with ideal gait: stage-1 total is 17.5",
           ref.stage1_total(1.0, 1.0, 1.0, 1.0) == 17.5)
    expect("|e| = 0.5 gives exp(-1)", math.isclose(ref.track_xy(0.5, 0.0, 0.0, 0.0), math.exp(-1)))


def scan_cases():
    cells = np.zeros((10, 10), dtype=np.uint8)
    beam = np.array([[0.5, 0.0, 0.0]])
    args = (0.05, 0.05, 0.0, 0.3, (0.05, 0.60))
    expect("one beam onto a free cell is caught",
           ref.scan_problems(beam, *args, cells, (0.0, 0.0), 0.1) != [])
    cells[0, 5] = ref.OCCUPIED
    expect("one beam landing in its Occupied cell passes",
           ref.scan_problems(beam, *args, cells, (0.0, 0.0), 0.1) == [])
    expect("the beam is rotated by the sensor yaw",
           ref.scan_problems(beam, 0.05, 0.05, math.pi / 2, 0.3, (0.05, 0.60),
                             cells, (0.0, 0.0), 0.1) != [])
    expect("an out-of-band return is ignored",
           ref.scan_problems(np.array([[0.3, 0.0, -0.3]]), *args, cells, (0.0, 0.0), 0.1) == [])

    old = np.zeros((2, 2), dtype=np.uint8)
    old[0, 0] = ref.OCCUPIED
    new = np.zeros((4, 4), dtype=np.uint8)
    new[2, 2] = ref.OCCUPIED
    expect("an Occupied cell kept through growth passes",
           ref.occupied_problems(old, (0.0, 0.0), new, np.array([-0.2, -0.2]), 0.1) == [])
    new[2, 2] = 1
    expect("an Occupied cell turned Free is caught",
           ref.occupied_problems(old, (0.0, 0.0), new, np.array([-0.2, -0.2]), 0.1) != [])

    rng = np.random.default_rng(0)
    boxes = [(np.array([*lo, 0.0]), np.array([*(lo + rng.uniform(0.2, 1.0, 2)), 1.0]))
             for lo in rng.uniform(-3, 3, (6, 2))]
    angles = rng.uniform(0, 2 * math.pi, 200)
    got, _ = mapping_replan.cast(0.1, -0.2, angles, boxes)
    want = [min(ref.ray_box_hit(0.1, -0.2, math.cos(a), math.sin(a), lo, hi)
                for lo, hi in boxes) for a in angles]
    expect("the vectorised scan caster matches the scalar slab test",
           np.allclose(got, want, rtol=1e-12, atol=1e-12))


def goal_cases():
    centres = np.array([[0.05, 0.05]])
    expect("goal search: first clear ring candidate",
           ref.expected_goal(0.05, 0.05, centres, [], 1.0, 0.25, math.pi / 2, 0.3, 0.1)
           == (0.55, 0.05))
    expect("goal search: a candidate on the clearance border is ambiguous",
           ref.expected_goal(0.05, 0.05, centres, [], 1.0, 0.1, math.pi / 2, 0.3, 0.1) is None)
    expect("a pose clear of every centre passes",
           ref.pose_problems(0.45, 0.05, (0.05, 0.05), centres, [], 2.0, 0.3, 0.1) == [])
    expect("a pose inside the inflation is caught",
           ref.pose_problems(0.25, 0.05, (0.05, 0.05), centres, [], 2.0, 0.3, 0.1) != [])
    expect("a pose beyond the search radius is caught",
           ref.pose_problems(3.0, 0.05, (0.05, 0.05), centres, [], 2.0, 0.3, 0.1) != [])
    expect("a pose overlapping an inflated box is caught",
           ref.pose_problems(1.0, 0.0, (1.0, 0.0), np.zeros((0, 2)),
                             [((1.3, -0.1), (1.5, 0.1))], 2.0, 0.3, 0.1) != [])
    expect("box distance from outside a corner",
           math.isclose(ref.point_box_distance(0.0, 0.0, (1, 1), (2, 2)), math.sqrt(2)))


def stats_cases():
    expect("tail of 40 samples is the 11th largest", run.tail(list(range(1, 41))) == 30)
    expect("tail of 100 samples is the 11th largest", run.tail(list(range(100))) == 89)
    expect("self time subtracts overlapping children once",
           tracer._covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0)


def main():
    for cases in (grid_cases, reward_cases, scan_cases, goal_cases, stats_cases):
        cases()
    for name in FAILURES:
        print(f"FAIL {name}")
    print(f"selftest: {PASSED[0]} passed, {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
