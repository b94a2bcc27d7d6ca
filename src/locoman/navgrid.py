"""2D occupancy grid: scan integration, goal search, A*.

Cells are Unknown until observed. Occupied wins every conflict and never
reverts to Free. The grid grows by doubling when points land outside.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoFeasibleGoal, NoPath
from .geometry import Pose, quat_from_yaw, vec3

UNKNOWN = 0
FREE = 1
OCCUPIED = 2

# export byte values for the graymap raster
_EXPORT_BYTE = {FREE: 0, UNKNOWN: 128, OCCUPIED: 255}

SQRT2 = float(np.sqrt(2.0))


@dataclass
class Scan:
    sensor_pose: Pose
    points: np.ndarray  # (N, 3) sensor frame

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.shape in ((0,), (3,)):  # no points, or one 3-vector
            points = points.reshape(-1, 3)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"scan points must be N x 3, got shape {points.shape}")
        self.points = points


@dataclass(frozen=True)
class GoalSearchConfig:
    search_radius: float = 2.0
    ring_step: float = 0.1
    angular_step: float = np.pi / 16.0
    robot_inflation: float = 0.30
    bbox_inflation: float = 0.10

    def __post_init__(self):
        for name in ("search_radius", "ring_step", "angular_step",
                     "robot_inflation", "bbox_inflation"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")


class OccupancyGrid:
    def __init__(self, resolution: float = 0.1, width: int = 64, height: int = 64,
                 origin_xy: tuple[float, float] = (0.0, 0.0)):
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise ValueError(f"resolution must be finite and > 0, got {resolution!r}")
        if width < 1 or height < 1:  # growth doubles the size, so 0 never grows
            raise ValueError(f"width and height must be >= 1, got {width} x {height}")
        self.resolution = float(resolution)
        self.origin = np.array([origin_xy[0], origin_xy[1]], dtype=float)
        self.cells = np.full((height, width), UNKNOWN, dtype=np.uint8)
        self._walls = None  # plan_path's `_Walls` entry for the last content it saw

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    # -- indexing ----------------------------------------------------------

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Floor convention: boundary coordinates fall in the lower cell."""
        ox, oy = self.origin.tolist()  # floats: numpy scalar arithmetic is slower, same bits
        return math.floor((x - ox) / self.resolution), math.floor((y - oy) / self.resolution)

    def cell_center(self, cx: int, cy: int) -> np.ndarray:
        return self.origin + (np.array([cx, cy], dtype=float) + 0.5) * self.resolution

    def in_bounds(self, cx: int, cy: int) -> bool:
        return 0 <= cx < self.width and 0 <= cy < self.height

    # -- growth ------------------------------------------------------------

    def _grow_to_include(self, cx: int, cy: int) -> tuple[int, int]:
        """Double the grid toward the out-of-bounds cell; returns shifted index."""
        while not self.in_bounds(cx, cy):
            h, w = self.cells.shape
            grow_left = cx < 0
            grow_down = cy < 0
            new_w = w * 2 if (cx < 0 or cx >= w) else w
            new_h = h * 2 if (cy < 0 or cy >= h) else h
            off_x = w if grow_left else 0
            off_y = h if grow_down else 0
            new_cells = np.full((new_h, new_w), UNKNOWN, dtype=np.uint8)
            new_cells[off_y:off_y + h, off_x:off_x + w] = self.cells
            self.cells = new_cells
            self.origin = self.origin - np.array([off_x, off_y]) * self.resolution
            cx += off_x
            cy += off_y
        return cx, cy

    def ensure_contains(self, x: float, y: float) -> tuple[int, int]:
        cx, cy = self.world_to_cell(x, y)
        return self._grow_to_include(cx, cy)

    # -- scan integration --------------------------------------------------

    def integrate_scan(self, scan: Scan, z_band: tuple[float, float] = (0.05, 0.60)) -> None:
        """Mark endpoint cells Occupied and ray cells Free (occupied wins).

        Points outside the z band are dropped entirely (no free-space carving).
        Each kept point casts a `bresenham` ray from the sensor cell to its
        endpoint cell, the endpoint excluded. The rays are not stepped:
        `_ray_cells` computes every ray's cells at once in closed form, cell t
        of a ray at t*minor/major rounded half toward the start on its minor
        axis, which is where bresenham's err/e2 recurrence puts it.

        The whole scan is done at once, and it writes the bytes that
        integrating the points one at a time writes, for two reasons:
        - Occupied wins and never reverts. So a cell ends Occupied if it was
          Occupied or an endpoint lands in it, else Free if a ray crosses it,
          in any order of writes. Rays are therefore written first and
          endpoints last.
        - Growth is replayed in point order. Each point is binned under the
          origin in force when the one-at-a-time loop reaches it, and the
          sensor cell is binned again after every growth. The first point
          outside the grid grows it, and the cells binned before it move by
          the offset the growth returns, as the grid copy moves what was
          already written. Bresenham rays are translation invariant.

        A kept point whose cell index is not finite raises as
        `world_to_cell` does, before any ray or endpoint is written.
        """
        z_min, z_max = z_band
        pose = scan.sensor_pose
        sx, sy = pose.position[0], pose.position[1]
        self.ensure_contains(sx, sy)
        wx, wy, wz = pose.transform(scan.points).T
        keep = (z_min <= wz) & (wz <= z_max)
        wx, wy = wx[keep], wy[keep]
        n = wx.size
        ends = np.empty((2, n), dtype=np.int64)
        starts = np.empty((2, n), dtype=np.int64)
        starts.T[:] = self.world_to_cell(sx, sy)
        i = 0  # first point not yet binned
        while i < n:
            # world_to_cell's expression, under the current origin
            fx = np.floor((wx[i:] - self.origin[0]) / self.resolution)
            fy = np.floor((wy[i:] - self.origin[1]) / self.resolution)
            bad = np.flatnonzero(~(np.isfinite(fx) & np.isfinite(fy)))
            if bad.size:  # raises, as world_to_cell does in the loop
                self.world_to_cell(wx[i + bad[0]], wy[i + bad[0]])
            cx, cy = fx.astype(np.int64), fy.astype(np.int64)
            h, w = self.cells.shape
            out = np.flatnonzero((cx < 0) | (cx >= w) | (cy < 0) | (cy >= h))
            m = out[0] if out.size else cx.size
            ends[0, i:i + m], ends[1, i:i + m] = cx[:m], cy[:m]
            if m == cx.size:
                break
            j = i + m
            old = int(cx[m]), int(cy[m])
            ends.T[j] = self._grow_to_include(*old)
            shift = (ends[:, j] - old)[:, None]
            ends[:, :j] += shift
            starts[:, :j] += shift
            starts.T[j:] = self.world_to_cell(sx, sy)
            i = j + 1
        _carve_rays(self.cells, starts, ends)

    # -- export ------------------------------------------------------------

    def export_raster(self, raster_path, header_path) -> None:
        """Binary graymap (P5): 0 = Free, 128 = Unknown, 255 = Occupied,
        plus a sidecar text header with resolution and origin."""
        img = np.full(self.cells.shape, _EXPORT_BYTE[UNKNOWN], dtype=np.uint8)
        img[self.cells == FREE] = _EXPORT_BYTE[FREE]
        img[self.cells == OCCUPIED] = _EXPORT_BYTE[OCCUPIED]
        with open(raster_path, "wb") as fh:
            fh.write(f"P5\n{self.width} {self.height}\n255\n".encode())
            fh.write(img.tobytes())
        with open(header_path, "w") as fh:
            fh.write(f"resolution {self.resolution!r}\n")
            fh.write(f"origin {self.origin[0]!r} {self.origin[1]!r}\n")
            fh.write(f"width {self.width}\nheight {self.height}\n")


def bresenham(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Integer ray-cast from (x0, y0) to (x1, y1), endpoints inclusive."""
    cells = []
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    x, y = x0, y0
    while True:
        cells.append((x, y))
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy
    return cells


def _carve_rays(cells: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
    """`bresenham(start, end)[:-1]` of every ray turns Free unless Occupied,
    then every end turns Occupied. Every ray's cells come from `_ray_cells`,
    in closed form and in one set of array operations with no loop over
    steps, and are marked in one bool mask."""
    ray = np.zeros(cells.size, dtype=bool)
    ray[_ray_cells(starts, ends, cells.shape)] = True
    cells[ray.reshape(cells.shape) & (cells != OCCUPIED)] = FREE
    cells[ends[1], ends[0]] = OCCUPIED


def _ray_cells(starts: np.ndarray, ends: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Flat indices y*w + x, in a grid of that (h, w) shape, of the cells of
    `bresenham(start, end)[:-1]` for every ray, ray after ray.

    A ray with major = max(|dx|, |dy|) and minor = min(|dx|, |dy|) has major
    cells before its end. Its cell t (0 <= t < major) lies t cells along the
    major axis and k = (2*t*minor + major - 1) // (2*major) along the minor
    one, each axis stepping in the sign of its d. That is t*minor/major
    rounded to nearest, a half rounded toward the start, which is what
    bresenham's recurrence does: after t major and k minor steps its err is
    major - minor*(t+1) + major*k, so it takes the minor step exactly when
    (2k+1)*major < 2*minor*(t+1), and its major step always (2*err > -minor).
    A zero-length ray has no cell, so its 2*major = 0 never divides.

    Indices and the numerator are int32 when every value fits (the
    numerator is below 2*h*w + h + w), which halves the per-cell
    temporaries; otherwise int64.
    """
    h, w = shape
    d = ends - starts
    ad = np.abs(d)
    major, minor = ad.max(axis=0), ad.min(axis=0)
    total = int(major.sum())
    itype = np.int32 if max(2 * h * w + h + w, total) < 2**31 else np.int64
    # flat step of each axis, in the sign of its d as bresenham steps
    step = np.where(d > 0, 1, -1) * np.array([[1], [w]])
    x_major = ad[0] >= ad[1]
    first = np.cumsum(major) - major  # each ray's first cell in the output

    def per_cell(a):
        return np.repeat(a.astype(itype), major)

    t = np.arange(total, dtype=itype) - per_cell(first)
    k = t * per_cell(2 * minor)
    k += per_cell(major - 1)
    k //= per_cell(2 * major)
    flat = t * per_cell(np.where(x_major, step[0], step[1]))
    flat += k * per_cell(np.where(x_major, step[1], step[0]))
    flat += per_cell(starts[1] * w + starts[0])
    return flat


# ---------------------------------------------------------------------------
# footprint / inflation helpers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _disk_offsets(radius: float, resolution: float) -> tuple[tuple[int, int], ...]:
    """Cell offsets (dx, dy) whose center distance is within radius, row by
    row from the lowest dy. Memoized per (radius, resolution), since
    `blocked_mask` asks for the same disk on every call; the tuple is
    immutable, so every caller can share it."""
    r_cells = int(np.floor(radius / resolution)) + 1
    offs = []
    for dy in range(-r_cells, r_cells + 1):
        for dx in range(-r_cells, r_cells + 1):
            if np.hypot(dx, dy) * resolution <= radius:
                offs.append((dx, dy))
    return tuple(offs)


def footprint_clear(grid: OccupancyGrid, x: float, y: float, radius: float) -> bool:
    """True when no Occupied cell center lies within radius of (x, y).

    Cells outside the grid count as Unknown, never Occupied.
    """
    cx, cy = grid.world_to_cell(x, y)
    r_cells = math.ceil(radius / grid.resolution) + 1
    # clip to the grid, as a negative stop would wrap around in a slice
    # (conditionals, not four max() calls: this runs every tick)
    x0, y0, x1, y1 = cx - r_cells, cy - r_cells, cx + r_cells + 1, cy + r_cells + 1
    x0, y0 = x0 if x0 > 0 else 0, y0 if y0 > 0 else 0
    window = grid.cells[y0:y1 if y1 > 0 else 0, x0:x1 if x1 > 0 else 0]
    if OCCUPIED not in window.tobytes():  # one byte per cell; empty off the grid
        return True
    iy, ix = np.nonzero(window == OCCUPIED)
    # same operation order as cell_center, so boundary cells compare alike
    res = grid.resolution
    centers_x = grid.origin[0] + (ix + x0 + 0.5) * res
    centers_y = grid.origin[1] + (iy + y0 + 0.5) * res
    return not (np.hypot(centers_x - x, centers_y - y) <= radius).any()


def _first_clear(grid: OccupancyGrid, xs: np.ndarray, ys: np.ndarray, radius: float,
                 box_lo: np.ndarray, box_hi: np.ndarray) -> int | None:
    """Index of the first candidate (xs[k], ys[k]) that `footprint_clear`
    accepts and whose disk of that radius overlaps no box (box_lo[j],
    box_hi[j]), or None when no candidate passes. A disk overlaps a box when
    the box point nearest its centre, each coordinate clamped by min(max(c,
    lo), hi), lies less than radius away.

    One window covering every candidate's `footprint_clear` window is read.
    A cell outside a candidate's own window has its centre more than
    radius + resolution away, so it never passes the distance test.
    """
    res = grid.resolution
    ox, oy = grid.origin.tolist()
    r_cells = math.ceil(radius / res) + 1
    # world_to_cell is monotone, so the extreme candidates bound every cell
    x0 = max(math.floor((float(xs.min()) - ox) / res) - r_cells, 0)
    y0 = max(math.floor((float(ys.min()) - oy) / res) - r_cells, 0)
    x1 = max(math.floor((float(xs.max()) - ox) / res) + r_cells + 1, 0)
    y1 = max(math.floor((float(ys.max()) - oy) / res) + r_cells + 1, 0)
    iy, ix = np.nonzero(grid.cells[y0:y1, x0:x1] == OCCUPIED)
    cx, cy = xs[:, None], ys[:, None]
    ok = np.ones(xs.size, dtype=bool)
    if ix.size:
        centers_x = ox + (ix + x0 + 0.5) * res
        centers_y = oy + (iy + y0 + 0.5) * res
        ok = ~(np.hypot(centers_x - cx, centers_y - cy) <= radius).any(axis=1)
    if box_lo.size and ok.any():
        # fmax/fmin return the candidate coordinate against a NaN bound, as
        # the builtin max/min of that clamp do
        nx = np.fmin(np.fmax(cx, box_lo[:, 0]), box_hi[:, 0])
        ny = np.fmin(np.fmax(cy, box_lo[:, 1]), box_hi[:, 1])
        ok &= ~(np.hypot(nx - cx, ny - cy) < radius).any(axis=1)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


def find_goal_pose(grid: OccupancyGrid, waypoint: np.ndarray, obstacles,
                   cfg: GoalSearchConfig, face_toward: np.ndarray) -> Pose:
    """First collision-free pose searching outward ring-by-ring from the waypoint.

    Rings at radii 0, ring_step, 2*ring_step, ... up to search_radius; each ring
    scanned from angle 0 by angular_step, and ring 0 is the waypoint alone.
    The pose yaw faces face_toward.

    Each ring is checked in one `_first_clear` pass, which answers every
    candidate as `footprint_clear` and the overlap test against each
    obstacle box grown by bbox_inflation would.
    """
    wx, wy = float(waypoint[0]), float(waypoint[1])
    d = cfg.bbox_inflation
    boxes = np.array([(lo[0], lo[1], hi[0], hi[1]) for lo, hi in obstacles],
                     dtype=float).reshape(-1, 4) + (-d, -d, d, d)
    box_lo, box_hi = boxes[:, :2], boxes[:, 2:]
    n = max(1, int(np.ceil(2.0 * np.pi / cfg.angular_step)))
    thetas = np.array([k * cfg.angular_step for k in range(n)
                       if k * cfg.angular_step < 2.0 * np.pi])
    cos, sin = np.cos(thetas), np.sin(thetas)
    radius = 0.0
    while radius <= cfg.search_radius + 1e-12:
        # ring 0 is one candidate at angle 0 (a -0.0 waypoint gives 0.0)
        m = 1 if radius == 0.0 else cos.size
        xs, ys = wx + radius * cos[:m], wy + radius * sin[:m]
        k = _first_clear(grid, xs, ys, cfg.robot_inflation, box_lo, box_hi)
        if k is not None:
            x, y = xs[k], ys[k]
            yaw = float(np.arctan2(face_toward[1] - y, face_toward[0] - x))
            return Pose(vec3(x, y, float(waypoint[2]) if len(waypoint) > 2 else 0.0),
                        quat_from_yaw(yaw))
        radius += cfg.ring_step
    raise NoFeasibleGoal(
        f"no collision-free goal within {cfg.search_radius} m of ({wx:.2f}, {wy:.2f})")


def blocked_mask(grid: OccupancyGrid, inflation: float) -> np.ndarray:
    """Cells whose inflated footprint overlaps an Occupied cell."""
    occ = grid.cells == OCCUPIED
    if inflation <= 0.0:
        return occ
    mask = np.zeros_like(occ)
    h, w = occ.shape
    for dx, dy in _disk_offsets(inflation, grid.resolution):
        # an offset as long as the grid reaches no cell; past that a
        # negative slice stop would wrap around
        if abs(dx) >= w or abs(dy) >= h:
            continue
        mask[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] |= \
            occ[max(-dy, 0):h - max(dy, 0), max(-dx, 0):w - max(dx, 0)]
    return mask


# `plan_path` on a grid of at least this many cells runs `_jump_search`; a
# smaller grid runs the octile `_astar`, whose paths the golden digests pin.
# Grids grow by doubling; this is one doubling past 256x128, the largest
# grid of a bundled scenario and of a scanned 24 m x 12 m arena whose
# content changes between plans. So those grids never build jump tables,
# and keep the octile search's paths.
_JUMP_MIN_CELLS = 2 * 256 * 128


class _Jumps(NamedTuple):
    """Jump tables of one padded wall content: the wall bytes in column
    order (`height` cells a column), and one forced-neighbour byte mask per
    straight move, +x and -x in row order, +y and -y in column order. A
    cell's byte is 1 when a straight move into it has a forced neighbour:
    a blocked cell beside it whose next cell in the move's direction is
    walkable."""

    height: int
    wall_t: bytes
    forced: tuple[bytes, bytes, bytes, bytes]


class _Walls(NamedTuple):
    """`plan_path`'s entry for one wall content: the padded walls, one byte
    per cell in row order, `width` cells a row, and on a grid of at least
    _JUMP_MIN_CELLS cells its jump tables."""

    key: tuple
    width: int
    wall: bytes
    jumps: _Jumps | None


def _wall_entry(grid: OccupancyGrid, inflation: float) -> _Walls:
    """The grid's `_Walls`, reused from its last call while nothing it
    depends on has changed. The walls are the blocked mask with a one-cell
    blocked border."""
    cells = grid.cells
    key = (cells.shape, cells.dtype.str, grid.resolution, inflation, cells.tobytes())
    if grid._walls is None or grid._walls.key != key:
        h, w = cells.shape
        padded = np.ones((h + 2, w + 2), dtype=bool)
        padded[1:-1, 1:-1] = blocked_mask(grid, inflation)
        jumps = _jump_tables(padded) if cells.size >= _JUMP_MIN_CELLS else None
        grid._walls = _Walls(key, w + 2, padded.tobytes(), jumps)
    return grid._walls


_ALL_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _pruned(dx: int, dy: int):
    """The 2011 pruning rules for a move in (dx, dy) into a cell, which let
    a diagonal move cut a blocked corner: the cell's natural neighbours,
    and (side, forced) pairs, whose forced neighbour is a successor too
    when the side cell is blocked and the forced one walkable. Each is a
    (dx, dy) offset from the cell."""
    if dx and dy:
        return ((dx, 0), (0, dy), (dx, dy)), (((-dx, 0), (-dx, dy)), ((0, -dy), (dx, -dy)))
    return ((dx, dy),), (((dy, dx), (dx + dy, dy + dx)), ((-dy, -dx), (dx - dy, dy - dx)))


def _jump_tables(padded: np.ndarray) -> _Jumps:
    """The `_Jumps` of a padded wall mask. Border cells get forced bytes 0:
    they are walls, and every scan stops at the first wall."""
    ph, pw = padded.shape

    def near(dx, dy):  # each inner cell's neighbour (dx, dy) away
        return padded[1 + dy:ph - 1 + dy, 1 + dx:pw - 1 + dx]

    forced = []
    for dx, dy in _ALL_DIRECTIONS[:4]:  # +x, -x, +y, -y, the order of `forced`
        mask = np.zeros_like(padded)
        for side, cell in _pruned(dx, dy)[1]:
            mask[1:-1, 1:-1] |= near(*side) & ~near(*cell)
        forced.append((mask if dy == 0 else mask.T).tobytes())
    return _Jumps(ph, padded.T.tobytes(), tuple(forced))


def plan_path(grid: OccupancyGrid, start: tuple[int, int], goal: tuple[int, int],
              inflation: float = 0.0) -> list[tuple[int, int]]:
    """Cost-optimal 8-connected path over Free|Unknown cells, diagonal cost
    sqrt(2): every cell from start to goal, each 8-adjacent to the last.

    The search runs on the blocked mask padded with a one-cell blocked
    border, so each neighbour is its cell's flat index plus a fixed offset
    and needs no bounds check. A cell's padded index (y+1)*(w+2)+x+1 sorts
    exactly as its unpadded y*w+x does.

    The padded wall bytes are kept on the grid and reused while its cells
    are byte for byte the same and the shape, dtype, resolution and
    inflation are equal; otherwise `blocked_mask` builds them again. The
    reuse is keyed on the cells' content, not on a count of writes, because
    `cells` is a public array that callers write in place. On a 512x256
    grid (2-core Xeon) the copy and comparison of the cells take about
    12 us, a new mask about 1.2 ms.

    A grid below _JUMP_MIN_CELLS cells runs `_astar`, an octile A* over
    every cell with the deterministic tie-break (f, h, flat cell index). A
    closed neighbour is not skipped there. When a later path reaches it
    more cheaply, its `g` is lowered and its `came` re-pointed (it is
    pushed again, but never expanded twice). The float octile heuristic is
    consistent only to about one ulp, so this happens, and skipping closed
    neighbours moves pinned paths and digests.

    On a grid of at least _JUMP_MIN_CELLS cells the entry also holds the
    `_Jumps` tables, built in numpy in about 1 ms (0.66 MB on the
    `nav_queries` 512x256 floor plan, 2-core Xeon), and the path comes from
    `_jump_search`, jump point search (Harabor & Grastien, AAAI 2011) with
    the same (f, h, flat index) heap order over jump points only. It is
    cost-optimal, but may be another optimal path than `_astar` finds; the
    same one on every call, as it depends only on the wall content. On that
    floor plan a cross-building request takes a median 0.62 ms, and a goal
    outside the building, which the search reports unreachable once it has
    closed every jump point the start reaches, about 3.6 ms. It is slow on
    grids of scattered single-cell obstacles, where nearly every cell is a
    jump point: corner to corner on 256x256 with no inflation and 10%, 25%
    and 35% of cells blocked at random, 7.8, 20 and 32 ms a request. No
    caller plans on such a grid; each inflates by 0.30 m, which merges
    scattered cells into blocks.
    """
    sx, sy = start
    gx, gy = goal
    if not (grid.in_bounds(sx, sy) and grid.in_bounds(gx, gy)):
        raise NoPath("start or goal out of bounds")
    walls = _wall_entry(grid, inflation)
    pw = walls.width
    # Python ints throughout: a numpy scalar index would slow every step
    src = (int(sy) + 1) * pw + int(sx) + 1
    dst = (int(gy) + 1) * pw + int(gx) + 1
    if walls.wall[src] or walls.wall[dst]:
        raise NoPath("start or goal cell blocked")
    path = (_astar if walls.jumps is None else _jump_search)(walls, src, dst)
    if path is None:
        raise NoPath(f"goal {goal} unreachable from {start}")
    return [(p % pw - 1, p // pw - 1) for p in path]


def _astar(walls: _Walls, src: int, dst: int) -> list[int] | None:
    """`plan_path`'s octile A* in the padded flat indices: the path from
    src to dst, or None when dst is unreachable."""
    wall, width = walls.wall, walls.width
    ty, tx = divmod(dst, width)
    sy, sx = divmod(src, width)
    diag = SQRT2 - 2.0
    moves = ((1, 1.0), (-1, 1.0), (width, 1.0), (-width, 1.0),
             (width + 1, SQRT2), (1 - width, SQRT2), (width - 1, SQRT2), (-width - 1, SQRT2))
    inf = float("inf")
    pop, push = heapq.heappop, heapq.heappush

    dx, dy = abs(sx - tx), abs(sy - ty)
    h0 = (dx + dy) + diag * min(dx, dy)
    g_score = {src: 0.0}
    came = {}
    open_heap = [(h0, h0, src)]
    closed = set()
    while open_heap:
        cur = pop(open_heap)[2]
        if cur in closed:
            continue
        if cur == dst:
            path = [cur]
            while path[-1] in came:
                path.append(came[path[-1]])
            path.reverse()
            return path
        closed.add(cur)
        g_cur = g_score[cur]
        for d, cost in moves:
            nb = cur + d
            if wall[nb]:
                continue
            tentative = g_cur + cost
            if tentative < g_score.get(nb, inf):
                g_score[nb] = tentative
                came[nb] = cur
                y, x = divmod(nb, width)
                dx, dy = abs(x - tx), abs(y - ty)
                hn = (dx + dy) + diag * (dx if dx < dy else dy)
                push(open_heap, (tentative + hn, hn, nb))
    return None


def _jump_search(walls: _Walls, src: int, dst: int) -> list[int] | None:
    """`plan_path`'s jump point search in the padded flat indices: every
    cell of the path from src to dst, or None when dst is unreachable.

    It prunes by `_pruned`, whose diagonal moves cut corners as `_astar`'s
    do: a diagonal move needs only its target cell walkable. A straight
    jump is one `find`/`rfind` of the first wall and of the first forced
    cell before it, along a row of the walls or a column of `wall_t`; it
    stops at the goal when the goal comes first. A diagonal jump steps cell
    by cell and stops at the goal, at a cell with a forced neighbour, or at
    a cell from which either straight jump along its two components finds a
    jump point. The cells between consecutive jump points, which lie on one
    straight or diagonal line, are filled in.
    """
    wall, pw = walls.wall, walls.width
    ph, wall_t, (fpx, fmx, fpy, fmy) = walls.jumps
    ty, tx = divmod(dst, pw)
    dst_t = tx * ph + ty  # the goal's index in column order
    diag = SQRT2 - 2.0
    inf = float("inf")
    pop, push = heapq.heappop, heapq.heappush
    # by heading: the natural successors, and (side, forced successor,
    # forced cell) with the side and the forced cell as flat offsets
    rules = {(0, 0): (_ALL_DIRECTIONS, ())}  # the start's
    for move in _ALL_DIRECTIONS:
        natural, forced = _pruned(*move)
        rules[move] = natural, tuple((sx + sy * pw, (fx, fy), fx + fy * pw)
                                        for (sx, sy), (fx, fy) in forced)

    def jump_x(cur, dx):
        """The jump point from cur along its row in dx, or -1."""
        if dx > 0:
            end = wall.find(1, cur + 1)
            hit = fpx.find(1, cur + 1, end)
            return dst if cur < dst < end and (hit < 0 or dst < hit) else hit
        end = wall.rfind(1, 0, cur)
        hit = fmx.rfind(1, end + 1, cur)
        return dst if end < dst < cur and dst > hit else hit

    def jump_y(x, y, dy):
        """The jump point from (x, y) along its column in dy, or -1."""
        col = x * ph
        t = col + y
        if dy > 0:
            end = wall_t.find(1, t + 1)
            hit = fpy.find(1, t + 1, end)
            if t < dst_t < end and (hit < 0 or dst_t < hit):
                return dst
        else:
            end = wall_t.rfind(1, 0, t)
            hit = fmy.rfind(1, end + 1, t)
            if end < dst_t < t and dst_t > hit:
                return dst
        return -1 if hit < 0 else (hit - col) * pw + x

    def jump_diagonal(cur, x, y, dx, dy):
        """The jump point from (x, y), flat index cur, on its diagonal in
        (dx, dy), or -1."""
        step = dy * pw + dx
        (side_a, _, cell_a), (side_b, _, cell_b) = rules[dx, dy][1]
        while True:
            cur += step
            x += dx
            y += dy
            if wall[cur]:
                return -1
            if cur == dst or (wall[cur + side_a] and not wall[cur + cell_a]) \
                    or (wall[cur + side_b] and not wall[cur + cell_b]) \
                    or jump_x(cur, dx) >= 0 or jump_y(x, y, dy) >= 0:
                return cur

    dx, dy = abs(src % pw - tx), abs(src // pw - ty)
    h0 = (dx + dy) + diag * min(dx, dy)
    g_score = {src: 0.0}
    came = {}
    heading = {src: (0, 0)}  # the direction of the jump into each jump point
    open_heap = [(h0, h0, src)]
    closed = set()
    while open_heap:
        cur = pop(open_heap)[2]
        if cur in closed:
            continue
        if cur == dst:
            points = [cur]
            while points[-1] in came:
                points.append(came[points[-1]])
            points.reverse()
            path = [src]
            for a, b in zip(points, points[1:]):
                (ay, ax), (by, bx) = divmod(a, pw), divmod(b, pw)
                step = ((by > ay) - (by < ay)) * pw + (bx > ax) - (bx < ax)
                path.extend(range(a + step, b + step, step))
            return path
        closed.add(cur)
        g_cur = g_score[cur]
        cy, cx = divmod(cur, pw)
        natural, forced = rules[heading[cur]]
        dirs = natural + tuple(d for side, d, cell in forced
                               if wall[cur + side] and not wall[cur + cell])
        for ddx, ddy in dirs:
            if ddx and ddy:
                nb = jump_diagonal(cur, cx, cy, ddx, ddy)
            elif ddx:
                nb = jump_x(cur, ddx)
            else:
                nb = jump_y(cx, cy, ddy)
            if nb < 0:
                continue
            y, x = divmod(nb, pw)
            steps = abs(x - cx) or abs(y - cy)
            tentative = g_cur + (steps * SQRT2 if ddx and ddy else steps)
            if tentative < g_score.get(nb, inf):
                g_score[nb] = tentative
                came[nb] = cur
                heading[nb] = (ddx, ddy)
                dx, dy = abs(x - tx), abs(y - ty)
                hn = (dx + dy) + diag * (dx if dx < dy else dy)
                push(open_heap, (tentative + hn, hn, nb))
    return None
