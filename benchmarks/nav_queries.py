"""nav_queries: navigation requests on a generated building floor plan.

One operation is one request: `find_goal_pose` at both ends, then
`plan_path` between the two goal cells with the robot's 0.30 m inflation.
The grid never changes, so A*, `blocked_mask` and the goal search dominate
and there is no tick loop, reward or I/O.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

import reference as ref

WIDTH, HEIGHT = 40.0, 20.0          # building extents, metres
WALL = 0.2                          # wall thickness
CORRIDOR = (8.5, 11.5)              # corridor band between the two room rows
DOOR = 1.2                          # doorway width
ROOMS_PER_ROW = 4
ROOM_WIDTH = WIDTH / ROOMS_PER_ROW
# neighbouring rooms (row, left column) joined by a doorway in their shared wall
SIDE_DOORS = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
# furniture slots as fractions of the room; the seed jitters each piece
SLOTS = [(0.25, 0.3), (0.75, 0.3), (0.25, 0.7), (0.75, 0.7)]
# open-floor request anchors as fractions of the room
ANCHORS = [(0.5, 0.5), (0.4, 0.15), (0.6, 0.85), (0.1, 0.5), (0.9, 0.5)]
JITTER = 0.25               # metres; the seed perturbs, it does not restructure
# request schedule per round: requests of each kind started from every room.
# Cross-building requests give the tail its meaning. The median falls on the
# plateau of same-room and short next-room requests (goal search plus the
# blocked mask), not on a steep stretch of the cost curve where it would
# jump from seed to seed.
SCHEDULE = {"same_room": 5, "next_room": 2, "cross_building": 3}
SEARCH_RADIUS, RING_STEP, ANGULAR_STEP = 2.0, 0.1, math.pi / 16.0
INFLATION, BOX_INFLATION = 0.30, 0.10


def _box(x0, y0, x1, y1, z1=2.0):
    return ([x0, y0, 0.0], [x1, y1, z1])


def generate_floor_plan(rng):
    """Walls, doorways and furniture of one building.

    The skeleton is fixed: two rows of four rooms either side of a corridor,
    one doorway in the middle of each room's corridor wall and one in the
    middle of each wall in SIDE_DOORS. The seed moves each piece of furniture
    by up to JITTER and draws its size, so every seed poses nearly the same
    search and planning problems and costs nearly the same to solve.
    Returns (walls, furniture, rooms): (min, max) boxes and room rectangles.
    """
    h = WALL / 2.0
    rows = [(0.0, CORRIDOR[0]), (CORRIDOR[1], HEIGHT)]
    rooms = [(c * ROOM_WIDTH, y0, (c + 1) * ROOM_WIDTH, y1)
             for y0, y1 in rows for c in range(ROOMS_PER_ROW)]
    walls = [_box(0, 0, WIDTH, WALL), _box(0, HEIGHT - WALL, WIDTH, HEIGHT),
             _box(0, 0, WALL, HEIGHT), _box(WIDTH - WALL, 0, WIDTH, HEIGHT)]
    doors = []
    for row, (y0, y1) in enumerate(rows):
        wall_y = CORRIDOR[row]
        xs = [0.0]
        for c in range(ROOMS_PER_ROW):
            dx = c * ROOM_WIDTH + ROOM_WIDTH / 2 - DOOR / 2
            xs += [dx, dx + DOOR]
            doors.append((dx + DOOR / 2, wall_y))
        xs.append(WIDTH)
        for a, b in zip(xs[0::2], xs[1::2]):
            walls.append(_box(a, wall_y - h, b, wall_y + h))
        for c in range(1, ROOMS_PER_ROW):
            x = c * ROOM_WIDTH
            if (row, c - 1) in SIDE_DOORS:
                dy = (y0 + y1) / 2 - DOOR / 2
                walls += [_box(x - h, y0, x + h, dy), _box(x - h, dy + DOOR, x + h, y1)]
                doors.append((x, dy + DOOR / 2))
            else:
                walls.append(_box(x - h, y0, x + h, y1))
    furniture = []
    for x0, y0, x1, y1 in rooms:
        for fx, fy in SLOTS:
            while True:
                sx, sy = rng.uniform(0.5, 0.9, size=2)
                cx = x0 + fx * (x1 - x0) + rng.uniform(-JITTER, JITTER)
                cy = y0 + fy * (y1 - y0) + rng.uniform(-JITTER, JITTER)
                lo, hi = (cx - sx / 2, cy - sy / 2), (cx + sx / 2, cy + sy / 2)
                if all(ref.point_box_distance(dx, dy, lo, hi) >= 1.5 for dx, dy in doors):
                    break
            furniture.append(([lo[0], lo[1], 0.0], [hi[0], hi[1], rng.uniform(0.5, 1.0)]))
    return walls, furniture, rooms


def scenario_dict(walls, furniture):
    """The floor plan as a locoman scenario: every box is a static obstacle."""
    return {"name": "floor_plan", "instruction": "navigate the building",
            "horizon": 600.0, "seed": 0,
            "robot_start": {"position": [2.0, 2.0, 0.0], "yaw": 0.0},
            "static_obstacles": [{"min": [float(c) for c in lo], "max": [float(c) for c in hi]}
                                 for lo, hi in walls + furniture]}


class Workload:
    imports = ("locoman.harness", "locoman.navgrid")
    unit = "navigation request"

    def __init__(self, seed, run_dir):
        from locoman import harness, navgrid
        self.harness, self.navgrid = harness, navgrid
        self.rng = np.random.default_rng(seed)
        self.walls, self.furniture, self.rooms = generate_floor_plan(self.rng)
        self.path = run_dir / "floor_plan.yaml"
        with open(self.path, "w") as fh:
            yaml.safe_dump(scenario_dict(self.walls, self.furniture), fh)

    def setup(self):
        """Program-side set-up: load the scenario and rasterise its grid."""
        scenario = self.harness.load_scenario(self.path)
        self.grid = self.harness.build_occupancy_grid(scenario)
        self.cfg = self.navgrid.GoalSearchConfig(
            search_radius=SEARCH_RADIUS, ring_step=RING_STEP, angular_step=ANGULAR_STEP,
            robot_inflation=INFLATION, bbox_inflation=BOX_INFLATION)

    # -- references -------------------------------------------------------

    def prepare(self):
        """Draw the request schedule, keeping only requests the reference
        says are reachable: the expected goal cells are free and connected."""
        g = self.grid
        self.cells = g.cells.copy()
        self.origin, self.res = g.origin.copy(), g.resolution
        self.centres = ref.occupied_centres(self.cells, self.origin, self.res)
        self.blocked = ref.reference_blocked(self.cells, self.res, INFLATION)
        labels = ref.components(~self.blocked)
        self.obstacles = [(np.array(lo), np.array(hi)) for lo, hi in self.furniture]
        self.queries = []
        for kind, per_room in SCHEDULE.items():
            for k in range(per_room * len(self.rooms)):
                room, first_is_box = k % len(self.rooms), k // len(self.rooms) % 2 == 0
                for attempt in range(50):
                    a, b = self._draw(kind, room, first_is_box, k + attempt)
                    ends = [self._expected_cell(w) for w in (a, b)]
                    if None in ends or ends[0] == ends[1]:
                        continue
                    la, lb = (labels[c[1], c[0]] for c in ends)
                    if la != 0 and la == lb:
                        self.queries.append((kind, a, b))
                        break
                else:
                    raise RuntimeError(f"no reachable {kind} request from room {room}")
        self.outputs = {}

    def _draw(self, kind, ra, first_is_box, k):
        row, col = divmod(ra, ROOMS_PER_ROW)
        if kind == "cross_building":
            # the heavy class: fixed anchors at both ends, so the slowest
            # requests, which set the tail, cost nearly the same for every seed
            rb = (1 - row) * ROOMS_PER_ROW + (ROOMS_PER_ROW - 1 - col)
            return self._waypoint(ra, False, k, 0.0), self._waypoint(rb, False, k + 1, 0.0)
        rb = ra if kind == "same_room" else \
            row * ROOMS_PER_ROW + (col + 1 if col + 1 < ROOMS_PER_ROW else col - 1)
        return (self._waypoint(ra, first_is_box, k, JITTER),
                self._waypoint(rb, not first_is_box, k + 1, JITTER))

    def _waypoint(self, room, at_box, k, jitter):
        """A furniture centre (the goal search walks out of the box) or an
        open-floor anchor of the room, moved by up to `jitter`."""
        x0, y0, x1, y1 = self.rooms[room]
        if at_box:
            lo, hi = self.furniture[room * len(SLOTS) + k % len(SLOTS)]
            return np.array([(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, 0.0])
        fx, fy = ANCHORS[k % len(ANCHORS)]
        # 3 cm keeps an unjittered anchor off the borders of the 0.1 m cells
        return np.array([x0 + fx * (x1 - x0) + 0.03 + self.rng.uniform(-jitter, jitter),
                         y0 + fy * (y1 - y0) + 0.03 + self.rng.uniform(-jitter, jitter), 0.0])

    def _expected_cell(self, waypoint):
        pose = ref.expected_goal(waypoint[0], waypoint[1], self.centres, self.obstacles,
                                 SEARCH_RADIUS, RING_STEP, ANGULAR_STEP, INFLATION,
                                 BOX_INFLATION)
        if pose is None:
            return None
        # keep clear of cell borders so rounding cannot move the goal cell
        fx = (pose[0] - self.origin[0]) / self.res
        fy = (pose[1] - self.origin[1]) / self.res
        if min(abs(fx - round(fx)), abs(fy - round(fy))) < 1e-6:
            return None
        return ref.cell_of(pose[0], pose[1], self.origin, self.res)

    # -- timed operation ----------------------------------------------------

    @property
    def n_ops(self):
        return len(self.queries)

    def start_round(self):
        pass

    def op(self, i):
        _, a, b = self.queries[i]
        nav = self.navgrid
        pa = nav.find_goal_pose(self.grid, a, self.obstacles, self.cfg, a)
        pb = nav.find_goal_pose(self.grid, b, self.obstacles, self.cfg, b)
        start = self.grid.world_to_cell(pa.position[0], pa.position[1])
        goal = self.grid.world_to_cell(pb.position[0], pb.position[1])
        path = nav.plan_path(self.grid, start, goal, inflation=self.cfg.robot_inflation)
        return (float(pa.position[0]), float(pa.position[1]),
                float(pb.position[0]), float(pb.position[1]), start, goal, path)

    # -- checks ---------------------------------------------------------------

    def check(self, i, out):
        """Property checks now; the Dijkstra comparison runs in finish()."""
        if i in self.outputs:
            return [] if out == self.outputs[i] else ["output differs from the first round"]
        self.outputs[i] = out
        _, a, b = self.queries[i]
        ax, ay, bx, by, start, goal, path = out
        problems = []
        for (x, y), w in (((ax, ay), a), ((bx, by), b)):
            problems += ref.pose_problems(x, y, w, self.centres, self.obstacles,
                                          SEARCH_RADIUS, INFLATION, BOX_INFLATION)
        if start != ref.cell_of(ax, ay, self.origin, self.res) or \
                goal != ref.cell_of(bx, by, self.origin, self.res):
            problems.append("start/goal cell is not the cell of its goal pose")
        problems += ref.path_problems(path, start, goal, self.blocked)
        if not np.array_equal(self.grid.cells, self.cells):
            problems.append("the grid changed")
        return problems

    def finish(self):
        """Path cost must equal the 8-connected Dijkstra distance."""
        graph = ref.grid_graph(~self.blocked)
        width = self.cells.shape[1]
        failed = {}
        for i, (_, _, _, _, start, goal, path) in self.outputs.items():
            cost = ref.path_cost(path)
            best = ref.dijkstra_cost(graph, width, start, goal, limit=cost + 1.0)
            if not math.isclose(cost, best, rel_tol=1e-9, abs_tol=1e-9):
                failed[i] = [f"path cost {cost:.6f} != Dijkstra {best:.6f}"]
        return failed
