"""mapping_replan: online mapping with a replan every frame.

One operation is one egocentric frame: `integrate_scan` of a 360-beam range
scan (1440 beams on every 12th frame, a keyframe) into a growing grid,
`ingest_detection` of every object in view, then one replan
(`find_goal_pose` + `plan_path`) on the grid just written. A round is one
lap of a loop route through a generated arena, starting from an empty grid,
so grid writes sit beside grid reads and any cache keyed on the grid's
contents is invalidated every frame.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

ARENA = (24.0, 12.0)
WALL = 0.2
ROUTE = [(3.0, 2.25), (21.0, 2.25), (21.0, 9.75), (3.0, 9.75)]  # closed loop
FRAMES = 48                 # frames per lap
GOAL_AHEAD = 6.0            # replan target: the route point this far ahead, metres
BEAMS = 360
# every 12th frame is a keyframe with a dense sweep, four beams per degree;
# keyframes are a deterministic heavy class, so the tail measures their
# integration rather than scheduling noise on otherwise uniform frames
KEYFRAME_EVERY, KEYFRAME_BEAMS = 12, 1440
FLOOR_EVERY = 9             # every 9th beam returns from the floor (out of band)
MAX_RANGE = 12.0
SENSOR_Z = 0.3
N_OBJECTS = 16
VIEW_RANGE, VIEW_HALF_ANGLE = 8.0, math.radians(75.0)
LATTICE = 0.05              # object surface sample spacing, metres
KEEP, POINT_NOISE = 0.7, 0.003
DESC_DIM, DESC_NOISE = 16, 0.04
INFLATION = 0.30
RES = 0.1
SEARCH_RADIUS = 2.0
Z_BAND = (0.05, 0.60)


def _box(x0, y0, x1, y1, z1=2.0):
    return (np.array([x0, y0, 0.0]), np.array([x1, y1, z1]))


def generate_arena(rng):
    """Outer walls, two central blocks the route loops around, and objects
    standing along the walls and the blocks, all clear of the route."""
    w, h = ARENA
    walls = [_box(0, 0, w, WALL), _box(0, h - WALL, w, h), _box(0, 0, WALL, h),
             _box(w - WALL, 0, w, h)]
    gap = rng.uniform(10.5, 13.5)
    blocks = [_box(rng.uniform(5.6, 6.4), 4.5, gap - 1.0, 7.5),
              _box(gap + 1.0, 4.5, rng.uniform(17.6, 18.4), 7.5)]
    bands = [(2.0, 22.0, 0.6, 1.0), (2.0, 22.0, 11.0, 11.4),
             (6.5, 17.5, 3.6, 4.0), (6.5, 17.5, 8.0, 8.4)]
    objects = []
    while len(objects) < N_OBJECTS:
        x0, x1, y0, y1 = bands[len(objects) % len(bands)]
        sx, sy = rng.uniform(0.3, 0.6, size=2)
        cx, cy = rng.uniform(x0, x1), rng.uniform(y0, y1)
        lo, hi = (cx - sx / 2, cy - sy / 2), (cx + sx / 2, cy + sy / 2)
        if any(math.hypot(cx - (a[0] + b[0]) / 2, cy - (a[1] + b[1]) / 2) < 1.6
               for a, b in objects):
            continue
        objects.append(_box(lo[0], lo[1], hi[0], hi[1], rng.uniform(0.4, 0.9)))
    return walls + blocks, objects


def route_length():
    return sum(math.dist(a, b) for a, b in zip(ROUTE, ROUTE[1:] + ROUTE[:1]))


def route_pose(s):
    """(x, y, yaw) at arc length s along the closed route."""
    s %= route_length()
    for a, b in zip(ROUTE, ROUTE[1:] + ROUTE[:1]):
        d = math.dist(a, b)
        if s <= d:
            f = s / d
            return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]),
                    math.atan2(b[1] - a[1], b[0] - a[0]))
        s -= d
    raise AssertionError("unreachable")


def cast(x, y, angles, boxes):
    """Range to the nearest box along each planar ray (inf when none)."""
    dx, dy = np.cos(angles)[:, None], np.sin(angles)[:, None]
    lo = np.array([b[0][:2] for b in boxes])
    hi = np.array([b[1][:2] for b in boxes])
    with np.errstate(divide="ignore", invalid="ignore"):
        tx0, tx1 = (lo[:, 0] - x) / dx, (hi[:, 0] - x) / dx
        ty0, ty1 = (lo[:, 1] - y) / dy, (hi[:, 1] - y) / dy
    tx0, tx1 = np.minimum(tx0, tx1), np.maximum(tx0, tx1)
    ty0, ty1 = np.minimum(ty0, ty1), np.maximum(ty0, ty1)
    # a ray parallel to a slab misses unless it starts inside it
    par_x = np.broadcast_to(dx == 0.0, tx0.shape)
    par_y = np.broadcast_to(dy == 0.0, ty0.shape)
    in_x = (lo[:, 0] <= x) & (x <= hi[:, 0])
    in_y = (lo[:, 1] <= y) & (y <= hi[:, 1])
    tx0 = np.where(par_x, np.where(in_x, -np.inf, np.inf), tx0)
    tx1 = np.where(par_x, np.where(in_x, np.inf, -np.inf), tx1)
    ty0 = np.where(par_y, np.where(in_y, -np.inf, np.inf), ty0)
    ty1 = np.where(par_y, np.where(in_y, np.inf, -np.inf), ty1)
    near, far = np.maximum(tx0, ty0), np.minimum(tx1, ty1)
    hit = (near <= far) & (far >= 0.0)
    dist = np.where(hit, np.maximum(near, 0.0), np.inf)
    return dist.min(axis=1), dist.argmin(axis=1)


def make_scan(x, y, yaw, boxes, beams):
    """Sensor-frame points of one sweep; no-return beams are dropped."""
    rel = np.arange(beams) * (2.0 * math.pi / beams)
    rng_, _ = cast(x, y, yaw + rel, boxes)
    pts = []
    for j, (a, r) in enumerate(zip(rel, rng_)):
        if j % FLOOR_EVERY == 0:
            pts.append((1.2 * math.cos(a), 1.2 * math.sin(a), -SENSOR_Z))
        elif r <= MAX_RANGE:
            pts.append((r * math.cos(a), r * math.sin(a), 0.0))
    return np.array(pts)


def surface_lattice(lo, hi):
    """Points on the top and the four sides of a box, LATTICE apart."""
    def axis(a, b):
        n = max(2, int(round((b - a) / LATTICE)) + 1)
        return np.linspace(a, b, n)
    xs, ys, zs = axis(lo[0], hi[0]), axis(lo[1], hi[1]), axis(0.0, hi[2])
    faces = [np.array([(x, y, hi[2]) for x in xs for y in ys])]
    faces += [np.array([(x, y, z) for x in xs for z in zs]) for y in (lo[1], hi[1])]
    faces += [np.array([(x, y, z) for y in ys for z in zs]) for x in (lo[0], hi[0])]
    return np.vstack(faces)


def make_descriptors(rng, n):
    """Object base descriptors, pairwise cosine below 0.45, so detections
    within cos 0.975 of their base stay separable at the 0.8 threshold."""
    out = []
    while len(out) < n:
        v = rng.normal(size=DESC_DIM)
        v /= np.linalg.norm(v)
        if all(abs(float(v @ u)) < 0.45 for u in out):
            out.append(v)
    return out


class Workload:
    imports = ("locoman.navgrid", "locoman.fusion")
    unit = "egocentric frame"

    def __init__(self, seed, run_dir):
        from locoman import fusion, navgrid
        from locoman.geometry import Pose
        self.fusion, self.navgrid, self.Pose = fusion, navgrid, Pose
        rng = np.random.default_rng(seed)
        self.statics, self.objects = generate_arena(rng)
        boxes = self.statics + self.objects
        bases = make_descriptors(rng, len(self.objects))
        lattices = [surface_lattice(lo, hi) for lo, hi in self.objects]
        step = route_length() / FRAMES
        self.frames = []
        for k in range(FRAMES):
            x, y, yaw = route_pose(k * step)
            gx, gy, _ = route_pose(k * step + GOAL_AHEAD)
            scan = make_scan(x, y, yaw, boxes,
                             KEYFRAME_BEAMS if k % KEYFRAME_EVERY == 0 else BEAMS)
            seen = []
            for o, (lo, hi) in enumerate(self.objects):
                cx, cy = (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
                bearing = math.atan2(cy - y, cx - x)
                off = (bearing - yaw + math.pi) % (2 * math.pi) - math.pi
                if math.hypot(cx - x, cy - y) > VIEW_RANGE or abs(off) > VIEW_HALF_ANGLE:
                    continue
                _, first = cast(x, y, np.array([bearing]), boxes)
                if first[0] != len(self.statics) + o:
                    continue  # hidden behind something else
                pts = lattices[o][rng.random(len(lattices[o])) < KEEP]
                pts = pts + rng.normal(0.0, POINT_NOISE, size=pts.shape)
                while True:
                    d = bases[o] + DESC_NOISE * rng.normal(size=DESC_DIM)
                    d /= np.linalg.norm(d)
                    if float(d @ bases[o]) > 0.975:
                        break
                seen.append((o, d, pts))
            self.frames.append(((x, y, yaw), scan, (gx, gy), seen))
        self._verify_descriptors()

    def _verify_descriptors(self):
        owner = [o for *_, seen in self.frames for o, _, _ in seen]
        desc = np.array([d for *_, seen in self.frames for _, d, _ in seen])
        if len(desc) == 0:
            raise RuntimeError("no object is ever in view")
        cos = desc @ desc.T
        same = np.equal.outer(owner, owner)
        if cos[same].min() <= 0.8 or (cos[~same].max(initial=-1.0) >= 0.8):
            raise RuntimeError("generated descriptors are not separable at 0.8")

    def _new_map(self):
        x, y, _ = self.frames[0][0]
        self.grid = self.navgrid.OccupancyGrid(resolution=RES, width=64, height=64,
                                               origin_xy=(x - 3.2, y - 3.2))
        self.graph = self.fusion.InstanceGraph(descriptor_dim=DESC_DIM)
        self.cfg = self.navgrid.GoalSearchConfig(search_radius=SEARCH_RADIUS,
                                                 robot_inflation=INFLATION)

    def setup(self):
        """Program-side set-up: an empty grid and instance graph."""
        self._new_map()

    def prepare(self):
        self.records = {}       # frame -> output of the first lap
        self.snapshots = {}     # frame -> grid state of the first lap

    @property
    def n_ops(self):
        return FRAMES

    def start_round(self):
        self._new_map()
        self.prev = None
        self.node_of = {}

    def op(self, i):
        nav, fusion = self.navgrid, self.fusion
        (x, y, yaw), points, (gx, gy), seen = self.frames[i]
        sensor = self.Pose.from_xy_yaw(x, y, yaw, z=SENSOR_Z)
        self.grid.integrate_scan(nav.Scan(sensor_pose=sensor, points=points),
                                 z_band=Z_BAND)
        ids = [self.graph.ingest_detection(fusion.Detection(label=f"object {o}",
                                                            descriptor=d, points=p))
               for o, d, p in seen]
        goal_wp = np.array([gx, gy, 0.0])
        pose = nav.find_goal_pose(self.grid, goal_wp, [], self.cfg, goal_wp)
        start = self.grid.ensure_contains(x, y)
        goal = self.grid.ensure_contains(pose.position[0], pose.position[1])
        path = nav.plan_path(self.grid, start, goal, inflation=INFLATION)
        return ids, (float(pose.position[0]), float(pose.position[1])), start, goal, path

    # -- checks ---------------------------------------------------------------

    def check(self, i, out):
        g = self.grid
        state = (g.cells.copy(), g.origin.copy())
        if i in self.records:
            same = (out == self.records[i] and np.array_equal(state[0], self.snapshots[i][0])
                    and np.array_equal(state[1], self.snapshots[i][1]))
            return [] if same else ["frame output differs from the first lap"]
        self.records[i], self.snapshots[i] = out, state
        problems = self._check_scan(i, *state)
        problems += self._check_fusion(i, out[0])
        problems += self._check_path(i, out, *state)
        self.prev = state
        return problems

    def _check_scan(self, i, cells, origin):
        (x, y, yaw), points, _, _ = self.frames[i]
        problems = ref.scan_problems(points, x, y, yaw, SENSOR_Z, Z_BAND, cells, origin, RES)
        if self.prev is not None:
            problems += ref.occupied_problems(*self.prev, cells, origin, RES)
        return problems

    def _check_fusion(self, i, ids):
        _, _, _, seen = self.frames[i]
        problems = []
        for (o, _, _), nid in zip(seen, ids):
            if self.node_of.setdefault(o, nid) != nid:
                problems.append(f"object {o} went to node {nid}, earlier {self.node_of[o]}")
        if len(set(self.node_of.values())) != len(self.node_of) or \
                len(self.graph) != len(self.node_of):
            problems.append(f"{len(self.graph)} nodes for {len(self.node_of)} objects seen")
        return problems

    def _check_path(self, i, out, cells, origin):
        (x, y, _), _, (gx, gy), _ = self.frames[i]
        _, (px, py), start, goal, path = out
        centres = ref.occupied_centres(cells, origin, RES)
        problems = ref.pose_problems(px, py, (gx, gy), centres, [], SEARCH_RADIUS,
                                     INFLATION, 0.0)
        if start != ref.cell_of(x, y, origin, RES) or goal != ref.cell_of(px, py, origin, RES):
            problems.append("start/goal cell is not the cell of its pose")
        blocked = ref.reference_blocked(cells, RES, INFLATION)
        return problems + ref.path_problems(path, start, goal, blocked)

    def finish(self):
        """Each replan's cost must equal the Dijkstra distance on its grid."""
        failed = {}
        for i, (_, _, start, goal, path) in self.records.items():
            cells = self.snapshots[i][0]
            free = ~ref.reference_blocked(cells, RES, INFLATION)
            cost = ref.path_cost(path)
            best = ref.dijkstra_cost(ref.grid_graph(free), cells.shape[1], start, goal,
                                     limit=cost + 1.0)
            if not math.isclose(cost, best, rel_tol=1e-9, abs_tol=1e-9):
                failed[i] = [f"path cost {cost:.6f} != Dijkstra {best:.6f}"]
        return failed
