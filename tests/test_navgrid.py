import heapq
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from locoman import navgrid
from locoman.errors import NoFeasibleGoal, NoPath
from locoman.geometry import Pose, quat_from_yaw, vec3
from locoman.navgrid import (FREE, OCCUPIED, SQRT2, UNKNOWN, GoalSearchConfig,
                             OccupancyGrid, Scan, _disk_offsets, _first_clear,
                             _ray_cells, blocked_mask, bresenham, find_goal_pose,
                             footprint_clear, plan_path)
from oracles import disk_overlaps_bbox, path_cost

ROOT = Path(__file__).resolve().parent.parent


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

    def test_world_to_cell_matches_numpy_floor(self):
        # the numpy expression world_to_cell replaced, as the reference: the
        # same ints, and the same exception and text for a non-finite index
        g = OccupancyGrid(resolution=0.1, origin_xy=(-3.2, 1.7))

        def reference(x, y):
            return (int(np.floor((x - g.origin[0]) / g.resolution)),
                    int(np.floor((y - g.origin[1]) / g.resolution)))

        for x, y in np.random.default_rng(8).uniform(-40.0, 40.0, (5_000, 2)).tolist():
            assert g.world_to_cell(x, y) == reference(x, y)
        for bad in (np.nan, np.inf, -np.inf, 1e308):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises((ValueError, OverflowError)) as want:
                    reference(bad, 0.0)
                with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                    g.world_to_cell(bad, 0.0)

    def test_cell_center_round_trip(self):
        g = OccupancyGrid(resolution=0.25, origin_xy=(-1.0, 2.0))
        c = g.cell_center(3, 5)
        assert g.world_to_cell(c[0], c[1]) == (3, 5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"width": 0}, "width and height must be >= 1"),
        ({"height": 0}, "width and height must be >= 1"),
        ({"width": -4, "height": 8}, "width and height must be >= 1"),
        ({"resolution": 0.0}, "resolution must be finite and > 0"),
        ({"resolution": -0.1}, "resolution must be finite and > 0"),
        ({"resolution": np.nan}, "resolution must be finite and > 0"),
        ({"resolution": np.inf}, "resolution must be finite and > 0"),
    ])
    def test_degenerate_grid_rejected(self, kwargs, message):
        # a 0-cell side never grows (doubling 0 gives 0), a nan resolution
        # fails later in an int cast, and an inf one puts every point in (0, 0)
        with pytest.raises(ValueError, match=f"^{message}, got "):
            OccupancyGrid(**kwargs)

    def test_one_cell_grid_grows(self):
        g = OccupancyGrid(resolution=0.1, width=1, height=1, origin_xy=(0, 0))
        assert g.ensure_contains(1.0, 1.0) == (10, 10)
        assert (g.width, g.height) == (16, 16)

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


class TestRayCells:
    """The closed-form ray cells against `bresenham(start, end)[:-1]`."""

    @staticmethod
    def _assert_bresenham(starts, ends, shape):
        flat = _ray_cells(np.array(starts).T, np.array(ends).T, shape)
        expected = [y * shape[1] + x for (x0, y0), (x1, y1) in zip(starts, ends)
                    for x, y in bresenham(x0, y0, x1, y1)[:-1]]
        assert flat.tolist() == expected

    def test_every_short_ray_both_ways(self):
        r = 48
        ends = [(r + dx, r + dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)]
        starts = [(r, r)] * len(ends)
        shape = (2 * r + 1, 2 * r + 1)
        self._assert_bresenham(starts, ends, shape)
        self._assert_bresenham(ends, starts, shape)

    def test_zero_length_ray_has_no_cell(self):
        with np.errstate(all="raise"):  # an integer division by zero would raise
            assert _ray_cells(np.array([[3], [4]]), np.array([[3], [4]]), (8, 8)).size == 0
            self._assert_bresenham([(3, 4), (3, 4), (3, 4)], [(6, 5), (3, 4), (0, 7)], (8, 8))

    def test_long_ray_exact_past_int32(self):
        # a 40000 x 40000 grid's flat indices fit in int32, but this ray's
        # 2*t*minor reaches about 3.2e9 and would wrap in it
        n = 40000
        assert 2 * (n - 2) * (n - 2) >= 2**31
        self._assert_bresenham([(0, 0), (n - 1, n - 2)], [(n - 1, n - 2), (0, 0)], (n, n))


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

    def test_keyframe_sweep_grows_mid_scan(self):
        # 1440 beams of 12 m from inside a 6.4 m grid: the rays start longer
        # than the grid, which grows east and north, then west and south
        # half-way through the sweep
        angles = np.arange(1440) * (2.0 * np.pi / 1440)
        pts = np.stack([12.0 * np.cos(angles), 12.0 * np.sin(angles), np.zeros(1440)], 1)
        scans = [Scan(sensor_pose=_yaw_pose(3.2, 3.2, 0.0), points=pts),
                 Scan(sensor_pose=_yaw_pose(1.0, 5.5, 0.6), points=pts)]
        g = self._assert_same((0.1, 64, 64, (0.0, 0.0)), scans)
        assert g.cells.shape == (512, 512)
        assert g.origin.tolist() == pytest.approx([-25.6, -25.6])

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

    @pytest.mark.parametrize("change", ["occupy_path_cell", "grow", "inflation",
                                        "resolution"])
    def test_reused_walls_follow_grid_changes(self, change, monkeypatch):
        # plan_path reuses its wall bytes while the grid is unchanged; each
        # change here must make it build them again from the changed grid
        masks = []

        def counting_blocked_mask(grid, inflation):
            masks.append(inflation)
            return blocked_mask(grid, inflation)

        monkeypatch.setattr(navgrid, "blocked_mask", counting_blocked_mask)
        g = OccupancyGrid(resolution=0.1, width=30, height=20, origin_xy=(-1.3, 0.7))
        g.cells[:] = FREE
        g.cells[:14, 15] = OCCUPIED  # a wall the path goes round
        start, goal, inflation = (2, 3), (27, 5), 0.12
        first = _assert_same_plan(g, start, goal, inflation)
        assert first is not None
        assert _assert_same_plan(g, start, goal, inflation) == first
        assert plan_path(g, start, goal, inflation=inflation) == first
        assert len(masks) == 1  # the reference builds its own mask
        if change == "occupy_path_cell":
            cx, cy = first[len(first) // 2]
            g.cells[cy, cx] = OCCUPIED
        elif change == "grow":
            ends = [g.cell_center(*cell) for cell in (start, goal)]
            g.ensure_contains(g.origin[0] - 0.5, g.origin[1] - 0.5)
            start, goal = (g.world_to_cell(*p) for p in ends)
        elif change == "inflation":
            inflation = 0.3
        else:
            g.resolution = 0.05
        assert _assert_same_plan(g, start, goal, inflation) != first
        assert len(masks) == 2

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


def _floor_plan_grid():
    """A grid of exactly `_JUMP_MIN_CELLS` cells: two rows of eight rooms
    off a corridor, each room with a doorway to the corridor and one to the
    next room in its row, seeded furniture, and a pocket sealed inside a
    solid block."""
    rng = np.random.Generator(np.random.PCG64(3601))
    g = OccupancyGrid(resolution=0.1, width=512, height=128, origin_xy=(-0.7, 2.3))
    g.cells[:] = FREE
    g.cells[[0, -1], :] = OCCUPIED
    g.cells[:, [0, -1]] = OCCUPIED
    for wall_y in (52, 76):
        g.cells[wall_y, :] = OCCUPIED
        for x in range(0, 512, 64):
            g.cells[wall_y, x + 26:x + 38] = FREE
    for x in range(64, 512, 64):
        g.cells[:52, x] = OCCUPIED
        g.cells[77:, x] = OCCUPIED
        g.cells[20:32, x] = FREE
        g.cells[96:108, x] = FREE
    for _ in range(48):
        x = int(rng.integers(4, 500))
        y = int(rng.integers(6, 40)) if rng.random() < 0.5 else int(rng.integers(84, 114))
        g.cells[y:y + int(rng.integers(3, 9)), x:x + int(rng.integers(3, 9))] = OCCUPIED
    g.cells[88:112, 290:314] = OCCUPIED
    g.cells[96:104, 298:306] = FREE
    assert g.cells.size == navgrid._JUMP_MIN_CELLS
    return g


def _grid_graph(free):
    """The 8-connected graph of a free mask, as a sparse matrix over flat
    indices y*w + x, costs 1 and sqrt(2)."""
    from scipy.sparse import csr_matrix
    h, w = free.shape
    index = np.arange(h * w).reshape(h, w)
    rows, cols, costs = [], [], []
    for dx, dy, cost in [(1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (-1, 1, SQRT2)]:
        a = (slice(0, h - dy), slice(max(-dx, 0), w - max(dx, 0)))
        b = (slice(dy, h), slice(max(dx, 0), w + min(dx, 0) or None))
        both = free[a] & free[b]
        rows += [index[a][both], index[b][both]]
        cols += [index[b][both], index[a][both]]
        costs.append(np.full(2 * int(both.sum()), cost))
    return csr_matrix((np.concatenate(costs), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(h * w, h * w))


def _check_plans(grid, inflation, requests):
    """plan_path on each (start, goal) of walkable cells against scipy's
    Dijkstra on the reference blocked mask: 8-adjacent walkable cells from
    start to goal at the least cost to 1e-9, or the unreachable `NoPath`
    text. Returns the paths, None for each unreachable goal."""
    from scipy.sparse.csgraph import dijkstra
    blocked = _blocked_mask_scatter(grid, inflation)
    w = blocked.shape[1]
    starts = sorted({start for start, _ in requests})
    dist = dijkstra(_grid_graph(~blocked), indices=[y * w + x for x, y in starts])
    paths = []
    for start, goal in requests:
        best = dist[starts.index(start), goal[1] * w + goal[0]]
        if not np.isfinite(best):
            with pytest.raises(NoPath) as err:
                plan_path(grid, start, goal, inflation=inflation)
            assert str(err.value) == f"goal {goal} unreachable from {start}"
            paths.append(None)
            continue
        path = plan_path(grid, start, goal, inflation=inflation)
        assert path[0] == start and path[-1] == goal
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            assert max(abs(x1 - x0), abs(y1 - y0)) == 1
            assert not blocked[y1, x1]
        assert path_cost(path) == pytest.approx(best, rel=1e-9, abs=1e-9), (start, goal)
        paths.append(path)
    return paths


def _random_requests(rng, grid, inflation, count):
    """Seeded (start, goal) pairs of walkable cells."""
    free = np.argwhere(~_blocked_mask_scatter(grid, inflation))
    return [tuple(tuple(int(v) for v in free[rng.integers(len(free))][::-1])
                  for _ in range(2)) for _ in range(count)]


class _FloorPlan:
    """The floor-plan grid, its blocked mask at INFLATION, and seeded
    requests between free cells."""

    INFLATION = 0.3

    def __init__(self):
        self.grid = _floor_plan_grid()
        self.blocked = _blocked_mask_scatter(self.grid, self.INFLATION)
        self.requests = [((6, 6), (505, 121)), ((505, 6), (6, 121)), ((40, 64), (470, 64)),
                         ((6, 6), (302, 100))]  # the last goal is sealed in the block
        self.requests += _random_requests(np.random.Generator(np.random.PCG64(3602)),
                                          self.grid, self.INFLATION, 9)


@pytest.fixture(scope="module")
def floor_plan():
    return _FloorPlan()


def _open_grid(width=256, height=256):
    """A Free grid of `_JUMP_MIN_CELLS` cells or more."""
    g = OccupancyGrid(resolution=0.1, width=width, height=height, origin_xy=(0.0, 0.0))
    g.cells[:] = FREE
    assert g.cells.size >= navgrid._JUMP_MIN_CELLS
    return g


def _count_jump_tables(monkeypatch):
    """A list that gets one entry per `_jump_tables` build from now on."""
    built = []
    jump_tables = navgrid._jump_tables
    monkeypatch.setattr(navgrid, "_jump_tables",
                        lambda padded: built.append(padded.shape) or jump_tables(padded))
    return built


class TestJumpSearch:
    """plan_path past `_JUMP_MIN_CELLS`: jump point search against an
    independent oracle."""

    def test_paths_are_optimal_and_repeat(self, floor_plan):
        g, inflation = floor_plan.grid, floor_plan.INFLATION
        paths = _check_plans(g, inflation, floor_plan.requests)
        assert g._walls.jumps is not None  # the jump search ran
        assert 0 < paths.count(None) < len(paths) - 8
        again = [plan_path(g, s, t, inflation=inflation) if p else None
                 for (s, t), p in zip(floor_plan.requests, paths)]
        assert again == paths

    @pytest.mark.parametrize("kind", ["rooms", "noise"])
    def test_random_grids_match_dijkstra(self, kind):
        # rooms: walls with doorways, random blocks and Unknown cells at the
        # robot's 0.3 m inflation; noise: single blocked cells at none, where
        # nearly every cell can be a jump point
        rng = np.random.Generator(np.random.PCG64(3801 if kind == "rooms" else 3802))
        unreachable = solved = 0
        for trial in range(3):
            g = _open_grid()
            if kind == "rooms":
                inflation = 0.3
                g.cells[rng.random(g.cells.shape) < 0.2] = UNKNOWN
                for k in (64, 128, 192):
                    g.cells[k, :] = g.cells[:, k] = OCCUPIED
                    for d in rng.integers(4, 240, 6):
                        g.cells[k, d:d + 10] = g.cells[d:d + 10, k] = FREE
                for _ in range(40):
                    x, y, sx, sy = (int(v) for v in rng.integers((0, 0, 2, 2), (250, 250, 24, 24)))
                    g.cells[y:y + sy, x:x + sx] = OCCUPIED
            else:
                inflation = 0.0
                g.cells[rng.random(g.cells.shape) < (0.05, 0.25, 0.4)[trial]] = OCCUPIED
            g.cells[90:110, 90:110] = OCCUPIED
            g.cells[96:104, 96:104] = FREE  # a pocket sealed inside a solid block
            requests = _random_requests(rng, g, inflation, 8)
            paths = _check_plans(g, inflation, requests + [(requests[0][0], (100, 100))])
            unreachable += paths.count(None)
            solved += len(paths) - paths.count(None)
        assert solved >= 16 and unreachable >= 1

    def test_diagonal_gap_between_blocked_cells(self):
        # the only way up is the diagonal step (101, 60) -> (100, 61), whose
        # two orthogonal cells (100, 60) and (101, 61) are both blocked
        g = _open_grid()
        g.cells[60, :101] = OCCUPIED
        g.cells[61, 101:] = OCCUPIED
        for start, goal in [((20, 10), (30, 200)), ((240, 50), (250, 62)),
                            ((101, 60), (100, 61)), ((5, 250), (200, 3))]:
            (path,) = _check_plans(g, 0.0, [(start, goal)])
            steps = set(zip(path, path[1:]))
            assert ((101, 60), (100, 61)) in steps or ((100, 61), (101, 60)) in steps

    @pytest.mark.parametrize("goal", [(200, 40), (3, 40), (40, 250), (40, 0)])
    def test_goal_on_a_straight_jump(self, goal):
        # no cell of an open grid has a forced neighbour, so only the goal
        # check of a straight jump stops it
        g = _open_grid()
        path = plan_path(g, (40, 40), goal)
        assert path == bresenham(40, 40, *goal)

    @pytest.mark.parametrize("goal", [(140, 140), (10, 70), (150, 200), (0, 100)])
    def test_goal_met_inside_a_diagonal_scan(self, goal):
        # on the diagonal itself, or on a row or column the diagonal crosses
        g = _open_grid()
        (path,) = _check_plans(g, 0.0, [((40, 40), goal)])
        assert path_cost(path) == pytest.approx(
            SQRT2 * min(abs(goal[0] - 40), abs(goal[1] - 40))
            + abs(abs(goal[0] - 40) - abs(goal[1] - 40)))

    def test_goal_at_or_next_to_the_start(self):
        g = _open_grid()
        start = (100, 101)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                goal = (start[0] + dx, start[1] + dy)
                assert plan_path(g, start, goal) == [start, goal][:2 if dx or dy else 1]

    @pytest.mark.parametrize("change", ["occupy_path_cell", "grow", "inflation",
                                        "resolution"])
    def test_reused_walls_follow_grid_changes(self, change, monkeypatch):
        # TestPlanPathOracle's grid changes on a grid past the bound: each
        # must build the walls and jump tables again
        built = _count_jump_tables(monkeypatch)
        g = _open_grid(512, 128)
        g.origin = np.array([-1.3, 0.7])
        g.cells[:100, 256] = OCCUPIED  # a wall the path goes round
        start, goal, inflation = (20, 30), (490, 50), 0.12
        (first,) = _check_plans(g, inflation, [(start, goal)])
        assert plan_path(g, start, goal, inflation=inflation) == first
        assert len(built) == 1
        if change == "occupy_path_cell":
            cx, cy = first[len(first) // 2]
            g.cells[cy, cx] = OCCUPIED
        elif change == "grow":
            ends = [g.cell_center(*cell) for cell in (start, goal)]
            g.ensure_contains(g.origin[0] - 0.5, g.origin[1] - 0.5)
            start, goal = (g.world_to_cell(*p) for p in ends)
        elif change == "inflation":
            inflation = 0.3
        else:
            g.resolution = 0.05
        assert _check_plans(g, inflation, [(start, goal)]) != [first]
        assert len(built) == 2 and built[1] == (g.height + 2, g.width + 2)


def test_large_grid_plans_without_scipy():
    """plan_path past `_JUMP_MIN_CELLS`, in a fresh process: a path round a
    wall, and the unreachable `NoPath` for a goal in a sealed pocket, with
    no scipy module loaded."""
    code = textwrap.dedent("""
        import json, sys
        from locoman.errors import NoPath
        from locoman.navgrid import _JUMP_MIN_CELLS, FREE, OCCUPIED, OccupancyGrid, plan_path
        g = OccupancyGrid(resolution=0.1, width=512, height=128)
        g.cells[:] = FREE
        g.cells[:100, 256] = OCCUPIED  # a wall the path goes round
        g.cells[40:60, 400:420] = OCCUPIED
        g.cells[46:54, 406:414] = FREE  # a pocket sealed inside the block
        path = plan_path(g, (20, 30), (490, 50), inflation=0.12)
        try:
            plan_path(g, (20, 30), (410, 50), inflation=0.12)
            sealed = None
        except NoPath as exc:
            sealed = str(exc)
        print(json.dumps({
            "jump": g.cells.size >= _JUMP_MIN_CELLS and g._walls.jumps is not None,
            "ends": [path[0], path[-1]], "round": max(y for x, y in path if x == 256),
            "sealed": sealed, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
    """)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    got = json.loads(out.stdout)
    assert got["jump"] and got["ends"] == [[20, 30], [490, 50]] and got["round"] >= 100
    assert got["sealed"] == "goal (410, 50) unreachable from (20, 30)"
    assert got["scipy"] == []


def test_small_and_rewritten_grids_build_no_tables(monkeypatch):
    # every TestPlanPathOracle grid, and a scanned grid grown to 256x128
    # cells and rewritten before every plan, stays on the octile search
    built = _count_jump_tables(monkeypatch)
    oracle = TestPlanPathOracle()
    for inflation in (0.0, 0.12, 0.3):
        oracle.test_random_grids(inflation)
    for shape in ((1, 12), (12, 1), (2, 6)):
        oracle.test_thin_grids(shape)
    for change in ("occupy_path_cell", "grow", "inflation", "resolution"):
        oracle.test_reused_walls_follow_grid_changes(change, monkeypatch)
    oracle.test_open_grid_ties()
    oracle.test_border_rows_and_columns()
    oracle.test_inflation_disk_larger_than_grid()
    oracle.test_no_path_texts()
    oracle.test_walled_mid_size_grid()
    g = OccupancyGrid(resolution=0.1, width=64, height=64, origin_xy=(-3.2, 0.0))
    along = np.arange(-5.0, 5.0, 0.1)
    walls = np.array([(dx, side, 0.3) for side in (-3.0, 3.0) for dx in along])
    for x in np.arange(3.0, 17.0, 2.5):  # down a corridor, mapping its walls
        g.integrate_scan(Scan(Pose.from_xy_yaw(x, 6.0, 0.0), walls))
        start, goal = g.world_to_cell(x, 6.0), g.world_to_cell(x + 3.0, 6.5)
        assert _assert_same_plan(g, start, goal, 0.3) is not None
    assert g.cells.size == 256 * 128
    assert built == []


def test_rewritten_large_grid_builds_tables_once_per_content(monkeypatch):
    # a grid past the bound, rewritten before every plan: a new content
    # builds the jump tables, a rewrite with the same bytes reuses them
    built = _count_jump_tables(monkeypatch)
    g = _open_grid(512, 128)
    contents = set()
    for k in range(6):
        if k % 2 == 0:
            g.cells[10 + 10 * k:20 + 10 * k, 100 + 40 * k] = OCCUPIED
        else:
            g.cells[:] = g.cells.copy()  # same bytes, written again
        contents.add(g.cells.tobytes())
        for _ in range(2):
            assert plan_path(g, (5, 64), (500, 64), inflation=0.3)[-1] == (500, 64)
    assert len(built) == len(contents) == 3


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

    def test_disk_offsets_memoized(self):
        # one cell of radius: the centre and its four neighbours, row by row
        offs = _disk_offsets(0.1, 0.1)
        assert offs == ((0, -1), (-1, 0), (0, 0), (1, 0), (0, 1))
        assert _disk_offsets(0.1, 0.1) is offs

    def test_disk_overlaps_bbox(self):
        assert disk_overlaps_bbox(0.0, 0.0, 0.5, (0.4, -1), (2, 1))
        assert not disk_overlaps_bbox(0.0, 0.0, 0.3, (0.4, -1), (2, 1))
        assert disk_overlaps_bbox(1.0, 0.0, 0.1, (0.4, -1), (2, 1))  # inside
