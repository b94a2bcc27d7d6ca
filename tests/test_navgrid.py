import heapq
import re

import numpy as np
import pytest

from locoman.errors import NoFeasibleGoal, NoPath
from locoman.geometry import Pose, quat_from_yaw, vec3
from locoman.navgrid import (FREE, OCCUPIED, SQRT2, UNKNOWN, GoalSearchConfig,
                             OccupancyGrid, Scan, _disk_offsets, _first_clear,
                             blocked_mask, bresenham, disk_overlaps_bbox, find_goal_pose,
                             footprint_clear, path_cost, plan_path)


def dijkstra_cost(blocked, start, goal):
    """Independent oracle: uniform-cost search over the 8-connected grid."""
    h, w = blocked.shape
    if blocked[start[1], start[0]] or blocked[goal[1], goal[0]]:
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    moves = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2)]
    done = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        if cur == goal:
            return d
        done.add(cur)
        for dx, dy, c in moves:
            nx, ny = cur[0] + dx, cur[1] + dy
            if not (0 <= nx < w and 0 <= ny < h) or blocked[ny, nx]:
                continue
            nd = d + c
            if nd < dist.get((nx, ny), np.inf):
                dist[(nx, ny)] = nd
                heapq.heappush(heap, (nd, (nx, ny)))
    return None


def footprint_clear_loop(grid, x, y, radius):
    """Independent oracle: the per-cell loop footprint_clear replaced.

    Out-of-grid cells read as Unknown; each Occupied cell's center comes
    from cell_center and is tested with a scalar hypot.
    """
    cx, cy = grid.world_to_cell(x, y)
    r_cells = int(np.ceil(radius / grid.resolution)) + 1
    for dy in range(-r_cells, r_cells + 1):
        for dx in range(-r_cells, r_cells + 1):
            gx, gy = cx + dx, cy + dy
            if grid.in_bounds(gx, gy) and grid.cells[gy, gx] == OCCUPIED:
                center = grid.cell_center(gx, gy)
                if np.hypot(center[0] - x, center[1] - y) <= radius:
                    return False
    return True


RADII = (0.05, 0.1, 0.3, 0.45)


def random_grid(rng, occupied_share, width=40, height=30):
    g = OccupancyGrid(resolution=0.1, width=width, height=height,
                      origin_xy=(-1.3, 0.7))
    g.cells[:] = np.where(rng.random((height, width)) < occupied_share,
                          OCCUPIED, FREE)
    return g


class TestFootprintOracle:
    """footprint_clear must answer exactly as the per-cell loop does."""

    def test_random_queries(self):
        rng = np.random.Generator(np.random.PCG64(21))
        g = random_grid(rng, 0.15)
        lo = g.origin - 0.8
        hi = g.origin + np.array([g.width, g.height]) * g.resolution + 0.8
        n = 20_000
        xs = rng.uniform(lo[0], hi[0], n)
        ys = rng.uniform(lo[1], hi[1], n)
        outcomes = set()
        for k in range(n):
            x, y, r = float(xs[k]), float(ys[k]), RADII[k % len(RADII)]
            expected = footprint_clear_loop(g, x, y, r)
            assert footprint_clear(g, x, y, r) is expected, (x, y, r)
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_queries_exactly_at_radius(self):
        rng = np.random.Generator(np.random.PCG64(22))
        g = random_grid(rng, 0.01)
        occupied = np.argwhere(g.cells == OCCUPIED)
        exact = 0
        while exact < 2_000:
            iy, ix = occupied[rng.integers(len(occupied))]
            r = RADII[exact % len(RADII)]
            c = g.cell_center(ix, iy)
            theta = rng.integers(8) * np.pi / 4 if rng.random() < 0.5 \
                else rng.uniform(0.0, 2 * np.pi)
            x = float(c[0] + r * np.cos(theta))
            y = float(c[1] + r * np.sin(theta))
            if np.hypot(c[0] - x, c[1] - y) != r:
                continue
            exact += 1
            # a center exactly at radius is inside the footprint
            assert footprint_clear_loop(g, x, y, r) is False
            assert footprint_clear(g, x, y, r) is False, (x, y, r)

    @pytest.mark.parametrize("edge", ["left", "right", "bottom", "top"])
    def test_windows_off_each_edge(self, edge):
        rng = np.random.Generator(np.random.PCG64(23))
        g = random_grid(rng, 0.3, width=12, height=10)
        x_lo, y_lo = g.origin
        x_hi = x_lo + g.width * g.resolution
        y_hi = y_lo + g.height * g.resolution
        # from 0.6 m outside the edge to 0.6 m inside it
        depth = rng.uniform(-0.6, 0.6, 2_000)
        along = rng.uniform(0.0, 1.0, 2_000)
        for d, a in zip(depth, along):
            if edge in ("left", "right"):
                x = x_lo - d if edge == "left" else x_hi + d
                y = y_lo + a * (y_hi - y_lo)
            else:
                x = x_lo + a * (x_hi - x_lo)
                y = y_lo - d if edge == "bottom" else y_hi + d
            for r in RADII:
                assert footprint_clear(g, x, y, r) is \
                    footprint_clear_loop(g, x, y, r), (x, y, r)

    def test_points_outside_grid_are_clear(self):
        g = OccupancyGrid(resolution=0.1, width=10, height=10, origin_xy=(0, 0))
        g.cells[:] = OCCUPIED
        # windows wholly outside the grid read only Unknown cells
        for x, y in [(-0.8, 0.5), (1.8, 0.5), (0.5, -0.8), (0.5, 1.8),
                     (-5.0, -5.0), (6.0, 6.0), (-0.8, 1.8), (1e6, -1e6)]:
            for r in RADII:
                assert footprint_clear(g, x, y, r) is True
                assert footprint_clear_loop(g, x, y, r) is True
        # just outside an edge the window still reaches Occupied cells
        assert footprint_clear(g, -0.2, 0.5, 0.3) is False


class TestGridBasics:
    def test_world_to_cell_floor_convention(self):
        g = OccupancyGrid(resolution=0.1, origin_xy=(0.0, 0.0))
        assert g.world_to_cell(0.0, 0.0) == (0, 0)
        assert g.world_to_cell(0.0999, 0.0) == (0, 0)
        assert g.world_to_cell(0.1, 0.0) == (1, 0)
        assert g.world_to_cell(-0.0001, 0.0) == (-1, 0)

    def test_cell_center_round_trip(self):
        g = OccupancyGrid(resolution=0.25, origin_xy=(-1.0, 2.0))
        c = g.cell_center(3, 5)
        assert g.world_to_cell(c[0], c[1]) == (3, 5)

    def test_starts_unknown(self):
        g = OccupancyGrid(width=8, height=8)
        assert np.all(g.cells == UNKNOWN)

    def test_growth_preserves_world_coordinates(self):
        g = OccupancyGrid(resolution=0.1, width=8, height=8, origin_xy=(0, 0))
        g.cells[2, 3] = OCCUPIED
        world = g.cell_center(3, 2)
        g.ensure_contains(-5.0, -5.0)
        cx, cy = g.world_to_cell(world[0], world[1])
        assert g.cells[cy, cx] == OCCUPIED
        assert g.width >= 8 and g.height >= 8

    def test_growth_doubles(self):
        g = OccupancyGrid(resolution=0.1, width=8, height=8, origin_xy=(0, 0))
        g.ensure_contains(0.85, 0.0)  # just past the right edge
        assert g.width == 16
        assert g.height == 8


class TestBresenham:
    def test_endpoints_inclusive(self):
        cells = bresenham(0, 0, 3, 0)
        assert cells[0] == (0, 0)
        assert cells[-1] == (3, 0)
        assert len(cells) == 4

    def test_diagonal(self):
        assert bresenham(0, 0, 3, 3) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_degenerate_single_cell(self):
        assert bresenham(2, 2, 2, 2) == [(2, 2)]

    def test_symmetric_cell_count(self):
        a = bresenham(0, 0, 7, 3)
        b = bresenham(7, 3, 0, 0)
        assert len(a) == len(b)


class TestScanIntegration:
    def _scan(self, points, sensor_xy=(0.0, 0.0)):
        pose = Pose(vec3(sensor_xy[0], sensor_xy[1], 0.3), np.array([1.0, 0, 0, 0]))
        return Scan(sensor_pose=pose, points=np.asarray(points, dtype=float))

    def test_endpoint_occupied_ray_free(self):
        g = OccupancyGrid(resolution=0.1, width=32, height=32, origin_xy=(-1.6, -1.6))
        g.integrate_scan(self._scan([[1.0, 0.0, 0.0]]))  # world z = 0.3, in band
        ex, ey = g.world_to_cell(1.0, 0.0)
        assert g.cells[ey, ex] == OCCUPIED
        sx, sy = g.world_to_cell(0.0, 0.0)
        assert g.cells[sy, sx] == FREE

    def test_occupied_never_reverts(self):
        g = OccupancyGrid(resolution=0.1, width=32, height=32, origin_xy=(-1.6, -1.6))
        g.integrate_scan(self._scan([[0.5, 0.0, 0.0]]))
        g.integrate_scan(self._scan([[1.0, 0.0, 0.0]]))  # ray passes the old endpoint
        cx, cy = g.world_to_cell(0.5, 0.0)
        assert g.cells[cy, cx] == OCCUPIED

    def test_z_band_filter(self):
        g = OccupancyGrid(resolution=0.1, width=32, height=32, origin_xy=(-1.6, -1.6))
        g.integrate_scan(self._scan([[1.0, 0.0, 0.5]]))   # world z = 0.8 > 0.6
        g.integrate_scan(self._scan([[1.0, 0.5, -0.28]]))  # world z = 0.02 < 0.05
        assert np.all(g.cells == UNKNOWN)

    def test_export_raster(self, tmp_path):
        g = OccupancyGrid(resolution=0.1, width=4, height=4, origin_xy=(0, 0))
        g.cells[0, 0] = FREE
        g.cells[1, 1] = OCCUPIED
        pgm = tmp_path / "map.pgm"
        hdr = tmp_path / "map.hdr"
        g.export_raster(pgm, hdr)
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        img = np.frombuffer(raw[len(b"P5\n4 4\n255\n"):], dtype=np.uint8).reshape(4, 4)
        assert img[0, 0] == 0
        assert img[1, 1] == 255
        assert img[2, 2] == 128
        text = hdr.read_text()
        assert "resolution 0.1" in text
        assert "width 4" in text

    @pytest.mark.parametrize("shape", [(6, 2), (4,), (2, 3, 1), (1, 1, 3), (0, 2)])
    def test_points_must_be_n_by_3(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            Scan(sensor_pose=Pose(), points=np.zeros(shape))

    @pytest.mark.parametrize("points, shape", [([], (0, 3)), (np.empty((0, 3)), (0, 3)),
                                               ([1, 2, 3], (1, 3)),
                                               (np.ones((5, 3), dtype=int), (5, 3))])
    def test_points_shapes_kept(self, points, shape):
        scan = Scan(sensor_pose=Pose(), points=points)
        assert scan.points.shape == shape and scan.points.dtype == float


def integrate_scan_loop(grid, scan, z_band=(0.05, 0.60)):
    """The per-point scan integration that integrate_scan replaced."""
    z_min, z_max = z_band
    sensor_xy = scan.sensor_pose.position[:2]
    grid.ensure_contains(sensor_xy[0], sensor_xy[1])
    for p in scan.points:
        world = scan.sensor_pose.transform(p)
        if not (z_min <= world[2] <= z_max):
            continue
        e_cx, e_cy = grid.ensure_contains(world[0], world[1])
        # grid may have grown: refresh sensor cell
        s_cx, s_cy = grid.world_to_cell(sensor_xy[0], sensor_xy[1])
        for cx, cy in bresenham(s_cx, s_cy, e_cx, e_cy)[:-1]:
            if grid.cells[cy, cx] != OCCUPIED:
                grid.cells[cy, cx] = FREE
        grid.cells[e_cy, e_cx] = OCCUPIED


def _yaw_pose(x, y, yaw, z=0.3):
    return Pose.from_xy_yaw(x, y, yaw, z=z)


class TestScanOracle:
    """integrate_scan against the per-point loop: the same cells, shape and
    origin bytes after every scan."""

    @staticmethod
    def _assert_same(grid_args, scans, z_band=(0.05, 0.60)):
        batch, loop = OccupancyGrid(*grid_args), OccupancyGrid(*grid_args)
        for scan in scans:
            with np.errstate(invalid="ignore"):
                batch.integrate_scan(scan, z_band)
                integrate_scan_loop(loop, scan, z_band)
            assert batch.cells.shape == loop.cells.shape
            assert np.array_equal(batch.cells, loop.cells)
            assert batch.origin.tobytes() == loop.origin.tobytes()
        return batch

    def test_random_scans(self):
        rng = np.random.default_rng(14)
        grown = 0
        for _ in range(120):
            res = float(rng.choice([0.05, 0.1, 0.25, 0.3]))
            grid_args = (res, int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                         tuple(rng.uniform(-2.0, 2.0, 2)))
            scans = []
            for _ in range(3):
                if rng.random() < 0.5:
                    q = rng.normal(size=4)
                    pose = Pose(vec3(*rng.uniform(-3.0, 3.0, 3)), q / np.linalg.norm(q))
                else:
                    pose = _yaw_pose(*rng.uniform(-3.0, 3.0, 2), rng.uniform(-np.pi, np.pi))
                pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(0, 40)), 3))
                pts[:, 2] = rng.uniform(-0.4, 0.5, len(pts))
                scans.append(Scan(sensor_pose=pose, points=pts))
            g = self._assert_same(grid_args, scans)
            grown += g.cells.shape != (grid_args[2], grid_args[1])
        assert grown > 60

    @pytest.mark.parametrize("xs", [(-3.0, 5.0, -7.0, 9.0), (5.0, -3.0, 9.0, -7.0)],
                             ids=["left_then_right", "right_then_left"])
    def test_growth_both_ways(self, xs):
        # each point leaves the grid the others grew; y leaves it too
        pts = [[x, 0.7 * x, 0.0] for x in xs]
        scans = [Scan(sensor_pose=_yaw_pose(0.3, 0.2, 0.0), points=pts),
                 Scan(sensor_pose=_yaw_pose(0.3, 0.2, 2.0), points=pts[::-1])]
        g = self._assert_same((0.1, 4, 4, (0.0, 0.0)), scans)
        assert g.width >= 160 and g.height >= 128

    def test_one_cell_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pts = rng.uniform(-1.0, 1.0, size=(20, 3)) * [1.0, 1.0, 0.0]
            self._assert_same((0.1, 1, 1, (0.0, 0.0)),
                              [Scan(sensor_pose=_yaw_pose(0.05, 0.05, 0.4), points=pts)])

    def test_sensor_outside_grid(self):
        pts = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-9.0, 0.5, 0.0]]
        for xy in [(10.0, -7.0), (-5.0, 3.0), (0.4, 12.0)]:
            self._assert_same((0.1, 4, 4, (0.0, 0.0)),
                              [Scan(sensor_pose=_yaw_pose(*xy, 0.0), points=pts)])

    @pytest.mark.parametrize("res", [0.25, 0.1])
    def test_endpoints_on_cell_boundaries(self, res):
        # sensor and endpoints on grid lines, for an exact and an inexact res
        k = np.arange(-12, 13)
        pts = np.stack([k * res, np.roll(k, 5) * res, np.zeros_like(k, dtype=float)], 1)
        scans = [Scan(sensor_pose=_yaw_pose(2 * res, -3 * res, 0.0), points=pts),
                 Scan(sensor_pose=_yaw_pose(0.0, 0.0, np.pi / 2), points=pts)]
        self._assert_same((res, 8, 8, (-res, 2 * res)), scans)

    def test_z_band_edges(self):
        # a sensor at z = 0 keeps z exact: on each band edge, one ulp outside
        zs = [0.05, np.nextafter(0.05, -1.0), 0.6, np.nextafter(0.6, 1.0), -1.0, 2.0]
        pts = [[0.2 + 0.3 * i, 0.1 * i, z] for i, z in enumerate(zs)]
        g = self._assert_same((0.1, 16, 16, (-0.8, -0.8)),
                              [Scan(sensor_pose=_yaw_pose(0.0, 0.0, 0.0, z=0.0), points=pts)])
        assert np.count_nonzero(g.cells == OCCUPIED) == 2

    def test_nan_and_inf_points_dropped(self):
        pts = [[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
               [0.0, 0.5, -np.inf], [np.inf, -np.inf, np.nan], [-0.5, 0.5, 0.0]]
        q = np.array([0.9, 0.1, -0.2, 0.3])
        scans = [Scan(sensor_pose=_yaw_pose(0.0, 0.0, 0.7), points=pts),
                 Scan(sensor_pose=Pose(vec3(0.1, 0.2, 0.3), q / np.linalg.norm(q)),
                      points=pts)]
        g = self._assert_same((0.1, 16, 16, (-0.8, -0.8)), scans)
        assert np.count_nonzero(g.cells == OCCUPIED) >= 2

    def test_cell_index_overflow_raises_before_writing(self):
        # a NaN or inf coordinate makes world z NaN, so the band drops it;
        # an in-band point can still overflow the cell index
        scan = Scan(sensor_pose=_yaw_pose(0.0, 0.0, 0.0),
                    points=[[0.5, 0.0, 0.0], [1e308, 0.0, 0.0]])
        loop = OccupancyGrid(0.1, 16, 16, (-0.8, -0.8))
        with pytest.raises(OverflowError), np.errstate(over="ignore"):
            integrate_scan_loop(loop, scan)
        g = OccupancyGrid(0.1, 16, 16, (-0.8, -0.8))
        with pytest.raises(OverflowError), np.errstate(over="ignore"):
            g.integrate_scan(scan)
        assert np.all(g.cells == UNKNOWN)

    def test_empty_and_filtered_scans(self):
        # the sensor still grows the grid when no point is kept
        scans = [Scan(sensor_pose=_yaw_pose(3.0, -2.0, 0.0), points=np.empty((0, 3))),
                 Scan(sensor_pose=_yaw_pose(-4.0, 1.0, 0.0), points=[[1.0, 0.0, 5.0]] * 3),
                 Scan(sensor_pose=_yaw_pose(0.0, 0.0, 0.0), points=[[1.0, 0.0, 0.0]])]
        g = self._assert_same((0.1, 4, 4, (0.0, 0.0)), scans)
        assert g.width > 4 and g.height > 4

    def test_non_yaw_orientations(self):
        # tilted sensors: z depends on x and y, so the band keeps some points
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(60, 3))
        scans = []
        for roll, pitch in [(0.3, 0.0), (0.0, -0.4), (0.2, 0.25), (np.pi, 0.1)]:
            q = np.array([np.cos(roll / 2) * np.cos(pitch / 2), np.sin(roll / 2) * np.cos(pitch / 2),
                          np.cos(roll / 2) * np.sin(pitch / 2), -np.sin(roll / 2) * np.sin(pitch / 2)])
            scans.append(Scan(sensor_pose=Pose(vec3(0.1, -0.2, 0.3), q), points=pts))
        self._assert_same((0.1, 20, 20, (-1.0, -1.0)), scans)

    def test_rays_cross_earlier_endpoints(self):
        # near then far on one bearing, and far then near: the near endpoint
        # lies on the far point's ray either way, and a later scan's ray
        # crosses both
        line = [[0.5, 0.25, 0.0], [1.5, 0.75, 0.0]]
        scans = [Scan(sensor_pose=_yaw_pose(0.0, 0.0, 0.0), points=line),
                 Scan(sensor_pose=_yaw_pose(0.0, 1.0, 0.0), points=line[::-1]),
                 Scan(sensor_pose=_yaw_pose(-0.5, -0.25, 0.0), points=[[2.5, 1.25, 0.0]])]
        g = self._assert_same((0.1, 32, 32, (-1.6, -1.6)), scans)
        for x, y in [(0.5, 0.25), (1.5, 0.75), (0.5, 1.25), (1.5, 1.75)]:
            assert g.cells[g.world_to_cell(x, y)[::-1]] == OCCUPIED


class TestAStar:
    def test_matches_dijkstra_on_random_grids(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        solved = 0
        for _ in range(200):
            g = OccupancyGrid(resolution=0.1, width=20, height=20, origin_xy=(0, 0))
            g.cells[:] = FREE
            occ = rng.random((20, 20)) < 0.25
            g.cells[occ] = OCCUPIED
            free = np.argwhere(g.cells != OCCUPIED)
            start = tuple(free[rng.integers(len(free))][::-1])
            goal = tuple(free[rng.integers(len(free))][::-1])
            blocked = g.cells == OCCUPIED
            oracle = dijkstra_cost(blocked, start, goal)
            try:
                path = plan_path(g, start, goal)
            except NoPath:
                assert oracle is None
                continue
            assert oracle is not None
            # identical step multiset; tolerance only absorbs summation order
            assert path_cost(path) == pytest.approx(oracle, abs=1e-9)
            assert path[0] == start and path[-1] == goal
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                assert max(abs(x1 - x0), abs(y1 - y0)) == 1
                assert not blocked[y1, x1]
            solved += 1
        assert solved > 50  # the sweep must actually exercise the planner

    def test_deterministic_path(self):
        g = OccupancyGrid(resolution=0.1, width=20, height=20, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[5:15, 10] = OCCUPIED
        p1 = plan_path(g, (2, 2), (18, 18))
        p2 = plan_path(g, (2, 2), (18, 18))
        assert p1 == p2

    def test_inflation_blocks_narrow_gap(self):
        g = OccupancyGrid(resolution=0.1, width=20, height=20, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[10, :9] = OCCUPIED
        g.cells[10, 10:] = OCCUPIED  # one-cell gap at x=9
        path = plan_path(g, (9, 2), (9, 18))  # fits without inflation
        assert path[0] == (9, 2)
        with pytest.raises(NoPath):
            plan_path(g, (9, 2), (9, 18), inflation=0.15)

    def test_inflated_paths_keep_distance(self):
        g = OccupancyGrid(resolution=0.1, width=20, height=20, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[8:12, 8:12] = OCCUPIED
        inflation = 0.25
        path = plan_path(g, (1, 1), (18, 18), inflation=inflation)
        occ_centers = [g.cell_center(x, y) for y, x in np.argwhere(g.cells == OCCUPIED)]
        for cx, cy in path:
            c = g.cell_center(cx, cy)
            for oc in occ_centers:
                assert np.hypot(c[0] - oc[0], c[1] - oc[1]) > inflation

    def test_unknown_is_traversable(self):
        g = OccupancyGrid(resolution=0.1, width=10, height=10, origin_xy=(0, 0))
        path = plan_path(g, (0, 0), (9, 9))
        assert path_cost(path) == pytest.approx(9 * SQRT2)


def _blocked_mask_scatter(grid, inflation):
    """The blocked mask as it was, a scatter over every occupied cell: the
    reference the shifted-slice mask must match bit for bit."""
    occ = grid.cells == OCCUPIED
    if inflation <= 0.0:
        return occ
    mask = np.zeros_like(occ)
    offs = _disk_offsets(inflation, grid.resolution)
    ys, xs = np.nonzero(occ)
    h, w = occ.shape
    for dx, dy in offs:
        nx = xs + dx
        ny = ys + dy
        keep = (nx >= 0) & (nx < w) & (ny >= 0) & (ny < h)
        mask[ny[keep], nx[keep]] = True
    return mask


def _plan_path_dict(grid, start, goal, inflation=0.0):
    """A* as it was, tuple-keyed with a bounds check per neighbour: the
    reference the flat-index search must match cell for cell."""
    h, w = grid.cells.shape
    sx, sy = start
    gx, gy = goal
    if not (grid.in_bounds(sx, sy) and grid.in_bounds(gx, gy)):
        raise NoPath("start or goal out of bounds")
    blocked = _blocked_mask_scatter(grid, inflation)
    if blocked[sy, sx] or blocked[gy, gx]:
        raise NoPath("start or goal cell blocked")

    def heuristic(x, y):
        dx, dy = abs(x - gx), abs(y - gy)
        return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)

    g_score = {start: 0.0}
    came = {}
    h0 = heuristic(sx, sy)
    open_heap = [(h0, h0, sy * w + sx, start)]
    closed = set()
    moves = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2)]
    while open_heap:
        _, _, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == goal:
            path = [cur]
            while path[-1] in came:
                path.append(came[path[-1]])
            return path[::-1]
        closed.add(cur)
        cx, cy = cur
        for dx, dy, cost in moves:
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < w and 0 <= ny < h) or blocked[ny, nx]:
                continue
            tentative = g_score[cur] + cost
            nxt = (nx, ny)
            if tentative < g_score.get(nxt, np.inf):
                g_score[nxt] = tentative
                came[nxt] = cur
                hn = heuristic(nx, ny)
                heapq.heappush(open_heap, (tentative + hn, hn, ny * w + nx, nxt))
    raise NoPath(f"goal {goal} unreachable from {start}")


def _assert_same_plan(grid, start, goal, inflation):
    """plan_path returns the reference's path, or raises its NoPath text."""
    try:
        expected = _plan_path_dict(grid, start, goal, inflation)
    except NoPath as exc:
        with pytest.raises(NoPath) as got:
            plan_path(grid, start, goal, inflation=inflation)
        assert str(got.value) == str(exc)
        return None
    assert plan_path(grid, start, goal, inflation=inflation) == expected
    return expected


class TestPlanPathOracle:
    """plan_path and blocked_mask must answer exactly as the old code did."""

    @pytest.mark.parametrize("inflation", [0.0, 0.12, 0.3])
    def test_random_grids(self, inflation):
        rng = np.random.Generator(np.random.PCG64(1207))
        # sparse obstacles keep inflated grids passable; denser ones at 0
        share = {0.0: 0.2, 0.12: 0.04, 0.3: 0.01}[inflation]
        solved = 0
        for _ in range(40):
            g = random_grid(rng, share, width=int(rng.integers(8, 33)),
                            height=int(rng.integers(8, 25)))
            # Unknown cells are traversable and sort no differently
            g.cells[rng.random(g.cells.shape) < 0.2] = UNKNOWN
            free = np.argwhere(~blocked_mask(g, inflation))
            for _ in range(3):
                start, goal = (tuple(int(v) for v in free[rng.integers(len(free))][::-1])
                               for _ in range(2))
                solved += _assert_same_plan(g, start, goal, inflation) is not None
        assert solved > 60

    def test_open_grid_ties(self):
        # every cell free: many paths share the optimal cost, so only the
        # (f, h, flat index) tie-break picks one
        g = OccupancyGrid(resolution=0.1, width=24, height=16, origin_xy=(0, 0))
        for start, goal in [((0, 0), (23, 15)), ((23, 0), (0, 15)), ((3, 7), (20, 9)),
                            ((12, 0), (12, 15)), ((0, 8), (23, 8)), ((5, 5), (5, 5))]:
            for a, b in [(start, goal), (goal, start)]:
                assert _assert_same_plan(g, a, b, 0.0) is not None

    def test_border_rows_and_columns(self):
        rng = np.random.Generator(np.random.PCG64(1208))
        g = random_grid(rng, 0.1, width=20, height=14)
        h, w = g.cells.shape
        border = ([(x, 0) for x in range(w)] + [(x, h - 1) for x in range(w)]
                  + [(0, y) for y in range(h)] + [(w - 1, y) for y in range(h)])
        for k in range(60):
            start = border[rng.integers(len(border))]
            goal = border[rng.integers(len(border))]
            _assert_same_plan(g, start, goal, 0.0 if k % 2 else 0.12)

    @pytest.mark.parametrize("shape", [(1, 12), (12, 1), (2, 6)])
    def test_thin_grids(self, shape):
        h, w = shape
        g = OccupancyGrid(resolution=0.1, width=w, height=h, origin_xy=(0, 0))
        g.cells[:] = FREE
        if w * h > 2:
            g.cells.reshape(-1)[(w * h) // 2] = OCCUPIED
        cells = [(x, y) for y in range(h) for x in range(w)]
        for inflation in (0.0, 0.12, 0.3):
            for start in cells:
                for goal in cells:
                    _assert_same_plan(g, start, goal, inflation)

    def test_inflation_disk_larger_than_grid(self):
        g = OccupancyGrid(resolution=0.1, width=1, height=1, origin_xy=(0, 0))
        g.cells[:] = FREE
        assert _assert_same_plan(g, (0, 0), (0, 0), 0.3) == [(0, 0)]
        g.cells[:] = OCCUPIED
        assert _assert_same_plan(g, (0, 0), (0, 0), 0.3) is None

    def test_no_path_texts(self):
        g = OccupancyGrid(resolution=0.1, width=16, height=10, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[:, 8] = OCCUPIED
        g.cells[4, 3] = OCCUPIED
        unreachable = "goal (12, 5) unreachable from (1, 1)"
        blocked, outside = "start or goal cell blocked", "start or goal out of bounds"
        cases = [((1, 1), (12, 5), 0.0, unreachable),  # the wall splits the grid
                 ((1, 1), (12, 5), 0.12, unreachable),
                 ((3, 4), (1, 1), 0.0, blocked),       # start on an occupied cell
                 ((1, 1), (3, 5), 0.12, blocked),      # goal inside its inflation
                 ((-1, 0), (1, 1), 0.0, outside),
                 ((1, 1), (16, 0), 0.0, outside),
                 ((1, 10), (1, 1), 0.0, outside),
                 ((1, 1), (1, -1), 0.0, outside)]
        for start, goal, inflation, text in cases:
            assert _assert_same_plan(g, start, goal, inflation) is None
            with pytest.raises(NoPath, match=re.escape(text)):
                plan_path(g, start, goal, inflation=inflation)

    def test_walled_mid_size_grid(self):
        # two rows of four rooms off a corridor, one doorway per room: long
        # searches through most of the grid, and one goal sealed off
        g = OccupancyGrid(resolution=0.1, width=128, height=64, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[[0, -1], :] = OCCUPIED
        g.cells[:, [0, -1]] = OCCUPIED
        for wall_y in (26, 38):
            g.cells[wall_y, :] = OCCUPIED
            for x in range(0, 128, 32):
                g.cells[wall_y, x + 11:x + 21] = FREE
        for x in range(32, 128, 32):
            g.cells[:26, x] = OCCUPIED
            g.cells[39:, x] = OCCUPIED
        g.cells[45:55, 100:110] = OCCUPIED
        g.cells[48:52, 103:107] = FREE  # a free pocket inside a solid block
        for start, goal, inflation in [((4, 4), (122, 58), 0.3),
                                       ((122, 4), (4, 58), 0.12),
                                       ((60, 32), (20, 10), 0.0)]:
            path = _assert_same_plan(g, start, goal, inflation)
            assert path is not None and len(path) > 50
        assert _assert_same_plan(g, (4, 58), (105, 50), 0.0) is None

    def test_blocked_mask_matches_scatter(self):
        rng = np.random.Generator(np.random.PCG64(1209))
        for k in range(200):
            res = float(rng.choice([0.05, 0.1, 0.25]))
            g = random_grid(rng, float(rng.uniform(0.0, 0.3)),
                            width=int(rng.integers(1, 24)), height=int(rng.integers(1, 24)))
            g.resolution = res
            inflation = float(rng.choice([0.0, 0.05, 0.12, 0.3, 0.6]))
            mask = blocked_mask(g, inflation)
            assert mask.dtype == bool
            assert np.array_equal(mask, _blocked_mask_scatter(g, inflation)), (k, inflation)


class TestGoalSearch:
    def test_clear_waypoint_is_goal(self):
        g = OccupancyGrid(resolution=0.1, width=40, height=40, origin_xy=(-2, -2))
        g.cells[:] = FREE
        cfg = GoalSearchConfig()
        goal = find_goal_pose(g, np.array([0.5, 0.5, 0.0]), [], cfg,
                              np.array([2.0, 0.5]))
        assert np.allclose(goal.position[:2], [0.5, 0.5])

    def test_goal_faces_target(self):
        g = OccupancyGrid(resolution=0.1, width=40, height=40, origin_xy=(-2, -2))
        g.cells[:] = FREE
        goal = find_goal_pose(g, np.array([0.0, 0.0, 0.0]), [], GoalSearchConfig(),
                              np.array([1.0, 1.0]))
        assert goal.yaw() == pytest.approx(np.pi / 4, abs=1e-9)

    def test_steps_off_inflated_bbox(self):
        g = OccupancyGrid(resolution=0.1, width=60, height=60, origin_xy=(-3, -3))
        g.cells[:] = FREE
        cfg = GoalSearchConfig()
        bbox = (np.array([-0.2, -0.2, 0.0]), np.array([0.2, 0.2, 0.5]))
        goal = find_goal_pose(g, np.array([0.0, 0.0, 0.0]), [bbox], cfg,
                              np.array([0.0, 0.0]))
        x, y = goal.position[:2]
        assert not disk_overlaps_bbox(
            x, y, cfg.robot_inflation,
            bbox[0][:2] - cfg.bbox_inflation, bbox[1][:2] + cfg.bbox_inflation)
        # nearest admissible ring: outside the box but within the search radius
        assert np.hypot(x, y) <= cfg.search_radius + 1e-9

    def test_avoids_occupied_cells(self):
        g = OccupancyGrid(resolution=0.1, width=60, height=60, origin_xy=(-3, -3))
        g.cells[:] = FREE
        cx, cy = g.world_to_cell(0.0, 0.0)
        g.cells[cy - 2:cy + 3, cx - 2:cx + 3] = OCCUPIED
        cfg = GoalSearchConfig()
        goal = find_goal_pose(g, np.array([0.0, 0.0, 0.0]), [], cfg,
                              np.array([0.0, 0.0]))
        assert footprint_clear(g, goal.position[0], goal.position[1],
                               cfg.robot_inflation)

    def test_exhaustion_raises(self):
        g = OccupancyGrid(resolution=0.1, width=60, height=60, origin_xy=(-3, -3))
        g.cells[:] = OCCUPIED
        with pytest.raises(NoFeasibleGoal):
            find_goal_pose(g, np.array([0.0, 0.0, 0.0]), [], GoalSearchConfig(),
                           np.array([0.0, 0.0]))


GOAL_FIELDS = ("search_radius", "ring_step", "angular_step",
               "robot_inflation", "bbox_inflation")


class TestGoalSearchConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", GOAL_FIELDS)
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            GoalSearchConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -0.1])
    @pytest.mark.parametrize("name", GOAL_FIELDS)
    def test_non_positive_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            GoalSearchConfig(**{name: value})


def find_goal_pose_loop(grid, waypoint, obstacles, cfg, face_toward):
    """Independent oracle: the per-candidate loop find_goal_pose replaced.

    Each candidate, the waypoint and then every ring from angle 0, is tested
    alone with footprint_clear and disk_overlaps_bbox against every box.
    """
    wx, wy = float(waypoint[0]), float(waypoint[1])
    n = max(1, int(np.ceil(2.0 * np.pi / cfg.angular_step)))
    ring = [k * cfg.angular_step for k in range(n) if k * cfg.angular_step < 2.0 * np.pi]
    inflated = [((bmin[0] - cfg.bbox_inflation, bmin[1] - cfg.bbox_inflation),
                 (bmax[0] + cfg.bbox_inflation, bmax[1] + cfg.bbox_inflation))
                for bmin, bmax in obstacles]
    radius = 0.0
    while radius <= cfg.search_radius + 1e-12:
        for theta in [0.0] if radius == 0.0 else ring:
            x = wx + radius * np.cos(theta)
            y = wy + radius * np.sin(theta)
            if not footprint_clear(grid, x, y, cfg.robot_inflation):
                continue
            if any(disk_overlaps_bbox(x, y, cfg.robot_inflation, lo, hi)
                   for lo, hi in inflated):
                continue
            yaw = float(np.arctan2(face_toward[1] - y, face_toward[0] - x))
            return Pose(vec3(x, y, float(waypoint[2]) if len(waypoint) > 2 else 0.0),
                        quat_from_yaw(yaw))
        radius += cfg.ring_step
    raise NoFeasibleGoal(
        f"no collision-free goal within {cfg.search_radius} m of ({wx:.2f}, {wy:.2f})")


def _goal_outcome(search, grid, waypoint, obstacles, cfg, face_toward):
    """("waypoint" | "ring", position bytes, orientation bytes), or
    ("none", the NoFeasibleGoal text)."""
    try:
        pose = search(grid, waypoint, obstacles, cfg, face_toward)
    except NoFeasibleGoal as err:
        return "none", str(err)
    at_waypoint = pose.position[0] == waypoint[0] and pose.position[1] == waypoint[1]
    return ("waypoint" if at_waypoint else "ring",
            pose.position.tobytes(), pose.orientation.tobytes())


def _random_boxes(rng, grid, count):
    lo = grid.origin + rng.uniform(0.0, 1.0, (count, 2)) * grid.resolution * \
        np.array([grid.width, grid.height])
    hi = lo + rng.uniform(0.05, 0.6, (count, 2))
    z = rng.uniform(0.2, 1.0, (count, 1))
    return [(np.append(a, 0.0), np.append(b, c)) for a, b, c in zip(lo, hi, z)]


class TestGoalSearchOracle:
    """find_goal_pose must return the per-candidate loop's pose bit for bit,
    or raise the same NoFeasibleGoal text."""

    CONFIGS = (
        GoalSearchConfig(search_radius=0.6),
        GoalSearchConfig(search_radius=0.5, ring_step=0.07),
        # 2 pi / 0.3 and 2 pi / 1.0 are not whole numbers
        GoalSearchConfig(search_radius=0.6, angular_step=0.3, robot_inflation=0.25),
        GoalSearchConfig(search_radius=0.45, ring_step=0.07, angular_step=1.0,
                         robot_inflation=0.12, bbox_inflation=0.05),
    )

    @staticmethod
    def _waypoints(rng, g, boxes):
        """Uniform ones reaching a metre past the grid, ones on cell borders,
        on the grid's edges, far outside it, at x = -0.0, and inside each box."""
        x_lo, y_lo = g.origin
        x_hi, y_hi = g.origin + np.array([g.width, g.height]) * g.resolution
        pts = [(x, y) for x, y in zip(rng.uniform(x_lo - 1.0, x_hi + 1.0, 12),
                                      rng.uniform(y_lo - 1.0, y_hi + 1.0, 12))]
        pts += [(x_lo + int(i) * g.resolution, y_lo + int(j) * g.resolution)
                for i, j in zip(rng.integers(0, g.width + 1, 6),
                                rng.integers(0, g.height + 1, 6))]
        pts += [(x_lo, rng.uniform(y_lo, y_hi)), (x_hi, rng.uniform(y_lo, y_hi)),
                (rng.uniform(x_lo, x_hi), y_lo), (rng.uniform(x_lo, x_hi), y_hi),
                (x_lo - 5.0, y_hi + 3.0), (-0.0, -0.0), (-0.0, rng.uniform(y_lo, y_hi))]
        pts += [((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2) for lo, hi in boxes]
        return [np.array([x, y, 0.3]) for x, y in pts]

    @pytest.mark.parametrize("occupied_share", [0.03, 0.1, 0.5])
    def test_random_grids(self, occupied_share):
        rng = np.random.Generator(np.random.PCG64(31 + int(occupied_share * 100)))
        seen = set()
        for trial in range(4):
            g = random_grid(rng, occupied_share, width=24, height=18)
            boxes = _random_boxes(rng, g, 3) if trial % 2 else []
            cfg = self.CONFIGS[trial]
            face = rng.uniform(-2.0, 2.0, 2)
            for wp in self._waypoints(rng, g, boxes or _random_boxes(rng, g, 3)):
                expected = _goal_outcome(find_goal_pose_loop, g, wp, boxes, cfg, face)
                assert _goal_outcome(find_goal_pose, g, wp, boxes, cfg, face) == \
                    expected, (trial, wp)
                seen.add(expected[0])
        assert seen == {"waypoint", "ring", "none"} if occupied_share == 0.5 \
            else {"waypoint", "ring"} <= seen

    def test_degenerate_boxes(self):
        """A NaN corner or an inverted box reads as min(max(...)) reads it."""
        rng = np.random.Generator(np.random.PCG64(35))
        g = random_grid(rng, 0.02, width=24, height=18)
        boxes = [((np.nan, 1.0), (0.2, 1.4)), ((0.5, 1.2), (np.nan, np.nan)),
                 ((0.4, 1.9), (-0.2, 1.5))]
        for wp in self._waypoints(rng, g, []):
            for cfg in self.CONFIGS[:2]:
                assert _goal_outcome(find_goal_pose, g, wp, boxes, cfg, wp) == \
                    _goal_outcome(find_goal_pose_loop, g, wp, boxes, cfg, wp), wp

    def test_ring_helper_matches_scalar_checks(self):
        """_first_clear answers each point as footprint_clear and
        disk_overlaps_bbox do, and returns the first that passes."""
        rng = np.random.Generator(np.random.PCG64(36))
        g = random_grid(rng, 0.05)
        occupied = np.argwhere(g.cells == OCCUPIED)
        boxes = _random_boxes(rng, g, 4)
        box_lo = np.array([lo[:2] for lo, _ in boxes])
        box_hi = np.array([hi[:2] for _, hi in boxes])
        no_box = np.empty((0, 2))
        for trial in range(40):
            r = RADII[trial % len(RADII)]
            lo, hi = (box_lo, box_hi) if trial % 2 else (no_box, no_box)
            xs = g.origin[0] + rng.uniform(-0.8, g.width * g.resolution + 0.8, 24)
            ys = g.origin[1] + rng.uniform(-0.8, g.height * g.resolution + 0.8, 24)
            # a third of the points lie r from an occupied cell centre, up to
            # rounding, and a third r past a box's right side
            for k in range(0, 24, 3):
                iy, ix = occupied[rng.integers(len(occupied))]
                c = g.cell_center(ix, iy)
                theta = rng.uniform(0.0, 2 * np.pi)
                xs[k], ys[k] = c[0] + r * np.cos(theta), c[1] + r * np.sin(theta)
            for k in range(1, 24, 3):
                j = rng.integers(len(boxes))
                xs[k] = box_hi[j, 0] + r
                ys[k] = rng.uniform(box_lo[j, 1], box_hi[j, 1])
            expected = [footprint_clear(g, x, y, r) and not any(
                disk_overlaps_bbox(x, y, r, a, b) for a, b in zip(lo.tolist(), hi.tolist()))
                for x, y in zip(xs, ys)]
            for k in range(xs.size):
                assert _first_clear(g, xs[k:k + 1], ys[k:k + 1], r, lo, hi) == \
                    (0 if expected[k] else None), (trial, k)
            first = expected.index(True) if any(expected) else None
            assert _first_clear(g, xs, ys, r, lo, hi) == first, trial


class TestHelpers:
    def test_blocked_mask_inflation_radius(self):
        g = OccupancyGrid(resolution=0.1, width=20, height=20, origin_xy=(0, 0))
        g.cells[:] = FREE
        g.cells[10, 10] = OCCUPIED
        mask = blocked_mask(g, 0.2)
        assert mask[10, 10]
        assert mask[10, 12]  # 0.2 m away
        assert not mask[10, 13]  # 0.3 m away

    def test_disk_overlaps_bbox(self):
        assert disk_overlaps_bbox(0.0, 0.0, 0.5, (0.4, -1), (2, 1))
        assert not disk_overlaps_bbox(0.0, 0.0, 0.3, (0.4, -1), (2, 1))
        assert disk_overlaps_bbox(1.0, 0.0, 0.1, (0.4, -1), (2, 1))  # inside
