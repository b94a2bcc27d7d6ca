"""2D occupancy grid: scan integration, goal search, A*.

Cells are Unknown until observed. Occupied wins every conflict and never
reverts to Free. The grid grows by doubling when points land outside.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
        if resolution <= 0.0:
            raise ValueError("resolution must be > 0")
        self.resolution = float(resolution)
        self.origin = np.array([origin_xy[0], origin_xy[1]], dtype=float)
        self.cells = np.full((height, width), UNKNOWN, dtype=np.uint8)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    # -- indexing ----------------------------------------------------------

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Floor convention: boundary coordinates fall in the lower cell."""
        cx = int(np.floor((x - self.origin[0]) / self.resolution))
        cy = int(np.floor((y - self.origin[1]) / self.resolution))
        return cx, cy

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
        endpoint cell, the endpoint excluded.

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
    then every end turns Occupied. The rays step in lockstep through
    bresenham's integer err/e2 recurrence, so every tie breaks alike; a ray
    has max(|dx|, |dy|) cells before its end. Sorted longest first, the rays
    still stepping at step t are a prefix."""
    steps = np.maximum(np.abs(ends[0] - starts[0]), np.abs(ends[1] - starts[1]))
    order = np.argsort(-steps, kind="stable")
    (x, y), (x1, y1), steps = starts[:, order], ends[:, order], steps[order]
    dx, dy = np.abs(x1 - x), np.abs(y1 - y)
    sx, sy = np.where(x < x1, 1, -1), np.where(y < y1, 1, -1)
    err = dx - dy
    ray = np.zeros(cells.shape, dtype=bool)
    # number of rays with more than t cells, for t = 0, 1, ...
    active = np.searchsorted(-steps, -np.arange(steps[0] if steps.size else 0))
    for k in active.tolist():
        ray[y[:k], x[:k]] = True
        e2 = 2 * err[:k]
        mx, my = e2 > -dy[:k], e2 < dx[:k]
        err[:k] += dx[:k] * my - dy[:k] * mx
        x[:k] += sx[:k] * mx
        y[:k] += sy[:k] * my
    cells[ray & (cells != OCCUPIED)] = FREE
    cells[ends[1], ends[0]] = OCCUPIED


# ---------------------------------------------------------------------------
# footprint / inflation helpers
# ---------------------------------------------------------------------------

def _disk_offsets(radius: float, resolution: float) -> np.ndarray:
    """Cell offsets whose center distance is within radius."""
    r_cells = int(np.floor(radius / resolution)) + 1
    offs = []
    for dy in range(-r_cells, r_cells + 1):
        for dx in range(-r_cells, r_cells + 1):
            if np.hypot(dx, dy) * resolution <= radius:
                offs.append((dx, dy))
    return np.array(offs, dtype=int)


def footprint_clear(grid: OccupancyGrid, x: float, y: float, radius: float) -> bool:
    """True when no Occupied cell center lies within radius of (x, y).

    Cells outside the grid count as Unknown, never Occupied.
    """
    cx, cy = grid.world_to_cell(x, y)
    r_cells = int(np.ceil(radius / grid.resolution)) + 1
    # clip to the grid; a negative stop would wrap around in a slice
    x0, y0 = max(cx - r_cells, 0), max(cy - r_cells, 0)
    x1, y1 = max(cx + r_cells + 1, 0), max(cy + r_cells + 1, 0)
    iy, ix = np.nonzero(grid.cells[y0:y1, x0:x1] == OCCUPIED)
    if not ix.size:
        return True
    # same operation order as cell_center, so boundary cells compare alike
    res = grid.resolution
    centers_x = grid.origin[0] + (ix + x0 + 0.5) * res
    centers_y = grid.origin[1] + (iy + y0 + 0.5) * res
    return not (np.hypot(centers_x - x, centers_y - y) <= radius).any()


def disk_overlaps_bbox(x: float, y: float, radius: float, bbox_min, bbox_max) -> bool:
    """2D disk vs axis-aligned box overlap."""
    nx = min(max(x, bbox_min[0]), bbox_max[0])
    ny = min(max(y, bbox_min[1]), bbox_max[1])
    return np.hypot(nx - x, ny - y) < radius


def _first_clear(grid: OccupancyGrid, xs: np.ndarray, ys: np.ndarray, radius: float,
                 box_lo: np.ndarray, box_hi: np.ndarray) -> int | None:
    """Index of the first candidate (xs[k], ys[k]) that `footprint_clear`
    accepts and whose disk overlaps no box (box_lo[j], box_hi[j]) as
    `disk_overlaps_bbox` tests it, or None when no candidate passes.

    One window covering every candidate's `footprint_clear` window is read.
    A cell outside a candidate's own window has its centre more than
    radius + resolution away, so it never passes the distance test.
    """
    res = grid.resolution
    ox, oy = grid.origin
    r_cells = int(np.ceil(radius / res)) + 1
    # world_to_cell is monotone, so the extreme candidates bound every cell
    x0 = max(int(np.floor((xs.min() - ox) / res)) - r_cells, 0)
    y0 = max(int(np.floor((ys.min() - oy) / res)) - r_cells, 0)
    x1 = max(int(np.floor((xs.max() - ox) / res)) + r_cells + 1, 0)
    y1 = max(int(np.floor((ys.max() - oy) / res)) + r_cells + 1, 0)
    iy, ix = np.nonzero(grid.cells[y0:y1, x0:x1] == OCCUPIED)
    cx, cy = xs[:, None], ys[:, None]
    ok = np.ones(xs.size, dtype=bool)
    if ix.size:
        centers_x = ox + (ix + x0 + 0.5) * res
        centers_y = oy + (iy + y0 + 0.5) * res
        ok = ~(np.hypot(centers_x - cx, centers_y - cy) <= radius).any(axis=1)
    if box_lo.size:
        # fmax/fmin return the candidate coordinate against a NaN bound, as
        # the builtin max/min of disk_overlaps_bbox do
        nx = np.fmin(np.fmax(cx, box_lo[:, 0]), box_hi[:, 0])
        ny = np.fmin(np.fmax(cy, box_lo[:, 1]), box_hi[:, 1])
        ok &= ~(np.hypot(nx - cx, ny - cy) < radius).any(axis=1)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


def find_goal_pose(grid: OccupancyGrid, waypoint: np.ndarray, obstacles,
                   cfg: GoalSearchConfig, face_toward: np.ndarray) -> Pose:
    """First collision-free pose searching outward ring-by-ring from the waypoint.

    Rings at radii 0, ring_step, 2*ring_step, ... up to search_radius; each ring
    scanned from angle 0 by angular_step. The pose yaw faces face_toward.

    The waypoint itself is checked alone with `footprint_clear` and
    `disk_overlaps_bbox`. Each later ring is checked in one `_first_clear`
    pass, which gives every candidate the answer of those two checks. Both
    skip the boxes that `_near_boxes` shows no candidate can touch.
    """
    wx, wy = float(waypoint[0]), float(waypoint[1])
    r = cfg.robot_inflation
    box_lo, box_hi = _near_boxes(obstacles, cfg, wx, wy)
    # radius 0, angle 0, by the ring expression (a -0.0 waypoint gives 0.0)
    x = wx + 0.0 * np.cos(0.0)
    y = wy + 0.0 * np.sin(0.0)
    if footprint_clear(grid, x, y, r) and \
            not any(disk_overlaps_bbox(x, y, r, lo, hi)
                    for lo, hi in zip(box_lo.tolist(), box_hi.tolist())):
        return _goal_pose(x, y, waypoint, face_toward)
    n = max(1, int(np.ceil(2.0 * np.pi / cfg.angular_step)))
    thetas = np.array([k * cfg.angular_step for k in range(n)
                       if k * cfg.angular_step < 2.0 * np.pi])
    cos, sin = np.cos(thetas), np.sin(thetas)
    radius = cfg.ring_step
    while radius <= cfg.search_radius + 1e-12:
        xs, ys = wx + radius * cos, wy + radius * sin
        k = _first_clear(grid, xs, ys, r, box_lo, box_hi)
        if k is not None:
            return _goal_pose(xs[k], ys[k], waypoint, face_toward)
        radius += cfg.ring_step
    raise NoFeasibleGoal(
        f"no collision-free goal within {cfg.search_radius} m of ({wx:.2f}, {wy:.2f})")


_NO_BOXES = np.empty((0, 2))


def _near_boxes(obstacles, cfg: GoalSearchConfig, wx: float, wy: float):
    """Lower and upper corners, as (B, 2) arrays, of the obstacle boxes grown
    by bbox_inflation, less those that lie wholly past one side of the
    search disk by more than robot_inflation plus a metre. Every candidate
    is that far from such a box, so no candidate's disk overlaps it."""
    corners = [(lo[0], lo[1], hi[0], hi[1]) for lo, hi in obstacles]
    if not corners:
        return _NO_BOXES, _NO_BOXES
    d = cfg.bbox_inflation
    boxes = np.array(corners, dtype=float) + (-d, -d, d, d)
    gap = boxes - (wx, wy, wx, wy)
    reach = cfg.search_radius + cfg.robot_inflation + 1.0
    # both corners past one side; a NaN corner keeps its box
    lo, hi = gap[:, :2], gap[:, 2:]
    far = (np.minimum(lo, hi) > reach) | (np.maximum(lo, hi) < -reach)
    near = boxes[~far.any(axis=1)]
    return near[:, :2], near[:, 2:]


def _goal_pose(x, y, waypoint: np.ndarray, face_toward: np.ndarray) -> Pose:
    yaw = float(np.arctan2(face_toward[1] - y, face_toward[0] - x))
    return Pose(vec3(x, y, float(waypoint[2]) if len(waypoint) > 2 else 0.0),
                quat_from_yaw(yaw))


def blocked_mask(grid: OccupancyGrid, inflation: float) -> np.ndarray:
    """Cells whose inflated footprint overlaps an Occupied cell."""
    occ = grid.cells == OCCUPIED
    if inflation <= 0.0:
        return occ
    mask = np.zeros_like(occ)
    h, w = occ.shape
    for dx, dy in _disk_offsets(inflation, grid.resolution).tolist():
        # an offset as long as the grid reaches no cell; past that a
        # negative slice stop would wrap around
        if abs(dx) >= w or abs(dy) >= h:
            continue
        mask[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] |= \
            occ[max(-dy, 0):h - max(dy, 0), max(-dx, 0):w - max(dx, 0)]
    return mask


def plan_path(grid: OccupancyGrid, start: tuple[int, int], goal: tuple[int, int],
              inflation: float = 0.0) -> list[tuple[int, int]]:
    """Cost-optimal 8-connected A* over Free|Unknown cells, diagonal cost sqrt(2).

    Tie-breaking is deterministic: (f, h, flat cell index).

    The search runs on the blocked mask padded with a one-cell blocked
    border, so each neighbour is its cell's flat index plus a fixed offset
    and needs no bounds check. A cell's padded index (y+1)*(w+2)+x+1 sorts
    exactly as its unpadded y*w+x does, so the heap pops cells in the same
    order and every path is the one the unpadded search finds.

    A closed neighbour is not skipped. When a later path reaches it more
    cheaply, its `g` is lowered and its `came` re-pointed (it is pushed
    again, but never expanded twice). The float octile heuristic is
    consistent only to about one ulp, so this happens: 5,513 times in 60 of
    the 80 requests of the `nav_queries` seed-1 benchmark. Skipping closed
    neighbours changes 20 of those 80 paths, so a faster search must keep
    the update or the pinned paths and digests move.
    """
    h, w = grid.cells.shape
    sx, sy = start
    gx, gy = goal
    if not (grid.in_bounds(sx, sy) and grid.in_bounds(gx, gy)):
        raise NoPath("start or goal out of bounds")
    blocked = blocked_mask(grid, inflation)
    if blocked[sy, sx] or blocked[gy, gx]:
        raise NoPath("start or goal cell blocked")

    pw = w + 2
    padded = np.ones((h + 2, pw), dtype=bool)
    padded[1:-1, 1:-1] = blocked
    wall = padded.tobytes()
    # Python ints throughout: a numpy scalar index would slow every step
    src = (int(sy) + 1) * pw + int(sx) + 1
    dst = (int(gy) + 1) * pw + int(gx) + 1
    ty, tx = divmod(dst, pw)
    diag = SQRT2 - 2.0
    moves = ((1, 1.0), (-1, 1.0), (pw, 1.0), (-pw, 1.0),
             (pw + 1, SQRT2), (1 - pw, SQRT2), (pw - 1, SQRT2), (-pw - 1, SQRT2))
    inf = float("inf")
    pop, push = heapq.heappop, heapq.heappush

    dx, dy = abs(sx - gx), abs(sy - gy)
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
            return [(p % pw - 1, p // pw - 1) for p in reversed(path)]
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
                y, x = divmod(nb, pw)
                dx, dy = abs(x - tx), abs(y - ty)
                hn = (dx + dy) + diag * (dx if dx < dy else dy)
                push(open_heap, (tentative + hn, hn, nb))
    raise NoPath(f"goal {goal} unreachable from {start}")


def path_cost(path: list[tuple[int, int]]) -> float:
    cost = 0.0
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        cost += SQRT2 if (x0 != x1 and y0 != y1) else 1.0
    return cost
