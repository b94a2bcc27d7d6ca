"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports locoman. Each function is written from the documented
contract (closed-form reward terms, cell-centre distances, an 8-connected
Dijkstra) rather than from the program's implementation, so a check built on
it fails when the program drifts from that contract.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

SQRT2 = math.sqrt(2.0)
OCCUPIED = 2  # cell value for Occupied in the program's grid encoding

# Stage-1 weights of the paper's reward table for the four terms the trace
# records (tracking xy, tracking yaw, gait, frequency).
STAGE1_WEIGHTS = {"track_xy": 2.75, "track_yaw": 1.50, "gait": 0.75, "freq": 12.5}
GAMMA_XY = 0.25
GAMMA_W = 0.25


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def track_xy(cmd_vx, cmd_vy, act_vx, act_vy):
    """exp(-|e|^2 / gamma_xy) with e the planar velocity error."""
    return math.exp(-((cmd_vx - act_vx) ** 2 + (cmd_vy - act_vy) ** 2) / GAMMA_XY)


def track_yaw(cmd_w, act_w):
    return math.exp(-((cmd_w - act_w) ** 2) / GAMMA_W)


def stage1_total(r_xy, r_yaw, r_gait, r_freq):
    w = STAGE1_WEIGHTS
    return (w["track_xy"] * r_xy + w["track_yaw"] * r_yaw
            + w["gait"] * r_gait + w["freq"] * r_freq)


# ---------------------------------------------------------------------------
# plain box geometry
# ---------------------------------------------------------------------------

def point_box_distance(x, y, lo, hi):
    """Planar distance from (x, y) to an axis-aligned box (0 inside it)."""
    dx = max(lo[0] - x, 0.0, x - hi[0])
    dy = max(lo[1] - y, 0.0, y - hi[1])
    return math.hypot(dx, dy)


def ray_box_hit(ox, oy, dx, dy, lo, hi):
    """Distance along a unit planar ray to an axis-aligned box, or inf."""
    t_near, t_far = -math.inf, math.inf
    for o, d, a, b in ((ox, dx, lo[0], hi[0]), (oy, dy, lo[1], hi[1])):
        if d == 0.0:
            if not (a <= o <= b):
                return math.inf
            continue
        t0, t1 = (a - o) / d, (b - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_near, t_far = max(t_near, t0), min(t_far, t1)
    if t_near > t_far or t_far < 0.0:
        return math.inf
    return max(t_near, 0.0)


# ---------------------------------------------------------------------------
# grids and paths
# ---------------------------------------------------------------------------

def occupied_centres(cells, origin, resolution):
    """World (x, y) of every Occupied cell centre, shape (N, 2)."""
    ys, xs = np.nonzero(cells == OCCUPIED)
    return np.column_stack([origin[0] + (xs + 0.5) * resolution,
                            origin[1] + (ys + 0.5) * resolution])


def reference_blocked(cells, resolution, inflation):
    """Cells whose centre lies within `inflation` of an Occupied cell centre.

    Distances are exact Euclidean distances between cell centres in cell
    units (scipy's distance transform), scaled by the resolution.
    """
    occ = cells == OCCUPIED
    if not occ.any():
        return occ
    dist = ndimage.distance_transform_edt(~occ)
    return dist * resolution <= inflation


def components(free):
    """8-connected component labels of the free cells (0 = blocked)."""
    labels, _ = ndimage.label(free, structure=np.ones((3, 3), dtype=int))
    return labels


def grid_graph(free):
    """Undirected 8-connected graph over free cells, edge cost 1 or sqrt(2)."""
    h, w = free.shape
    idx = np.arange(h * w).reshape(h, w)
    rows, cols, costs = [], [], []
    for dy, dx, cost in ((0, 1, 1.0), (1, 0, 1.0), (1, 1, SQRT2), (1, -1, SQRT2)):
        y0, y1 = max(0, -dy), h - max(0, dy)
        x0, x1 = max(0, -dx), w - max(0, dx)
        a = free[y0:y1, x0:x1]
        b = free[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
        both = a & b
        rows.append(idx[y0:y1, x0:x1][both])
        cols.append(idx[y0 + dy:y1 + dy, x0 + dx:x1 + dx][both])
        costs.append(np.full(int(both.sum()), cost))
    rows, cols, costs = (np.concatenate(v) for v in (rows, cols, costs))
    return coo_matrix((costs, (rows, cols)), shape=(h * w, h * w)).tocsr()


def dijkstra_cost(graph, width, start, goal, limit=np.inf):
    """Shortest 8-connected cost between two (x, y) cells, inf if none."""
    dist = dijkstra(graph, directed=False, indices=start[1] * width + start[0],
                    limit=limit)
    return float(dist[goal[1] * width + goal[0]])


def path_cost(path):
    return sum(SQRT2 if (x0 != x1 and y0 != y1) else 1.0
               for (x0, y0), (x1, y1) in zip(path, path[1:]))


def path_problems(path, start, goal, blocked):
    """Property checks on an A* path; returns a list of what is wrong."""
    problems = []
    h, w = blocked.shape
    if not path:
        return ["empty path"]
    if tuple(path[0]) != tuple(start) or tuple(path[-1]) != tuple(goal):
        problems.append(f"path runs {path[0]}->{path[-1]}, wanted {start}->{goal}")
    for x, y in path:
        if not (0 <= x < w and 0 <= y < h) or blocked[y, x]:
            problems.append(f"path cell {(x, y)} is blocked or out of bounds")
            break
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        if max(abs(x1 - x0), abs(y1 - y0)) != 1:
            problems.append(f"cells {(x0, y0)} and {(x1, y1)} are not 8-adjacent")
            break
    return problems


def scan_problems(points, x, y, yaw, sensor_z, z_band, cells, origin, resolution):
    """Every in-band beam endpoint (sensor-frame points of a sensor at
    (x, y, sensor_z) facing yaw) must land in an Occupied cell."""
    c, s = math.cos(yaw), math.sin(yaw)
    h, w = cells.shape
    for px, py, pz in points:
        if not (z_band[0] <= pz + sensor_z <= z_band[1]):
            continue
        wx, wy = x + c * px - s * py, y + s * px + c * py
        # a point within rounding of a cell border may fall either side
        near = {cell_of(wx + ex, wy + ey, origin, resolution)
                for ex in (-1e-9, 1e-9) for ey in (-1e-9, 1e-9)}
        if not any(0 <= cx < w and 0 <= cy < h and cells[cy, cx] == OCCUPIED
                   for cx, cy in near):
            return [f"beam endpoint ({wx:.3f}, {wy:.3f}) is not Occupied"]
    return []


def occupied_problems(old, old_origin, new, new_origin, resolution):
    """Occupied cells stay Occupied (after any growth shift of the origin)
    and the Occupied count never falls."""
    problems = []
    ox, oy = (int(round(v)) for v in (np.asarray(old_origin) - new_origin) / resolution)
    h, w = old.shape
    moved = new[oy:oy + h, ox:ox + w] if ox >= 0 and oy >= 0 else None
    if moved is None or moved.shape != old.shape or \
            np.any((old == OCCUPIED) & (moved != OCCUPIED)):
        problems.append("an Occupied cell changed state")
    if (new == OCCUPIED).sum() < (old == OCCUPIED).sum():
        problems.append("the Occupied count fell")
    return problems


def cell_of(x, y, origin, resolution):
    """Floor convention: the cell whose square holds (x, y)."""
    return (int(math.floor((x - origin[0]) / resolution)),
            int(math.floor((y - origin[1]) / resolution)))


def pose_problems(x, y, waypoint, centres, boxes, search_radius, inflation,
                  box_inflation, tol=1e-9):
    """Goal-pose properties: near its waypoint, clear of every occupied cell
    centre by more than `inflation`, and off every inflated obstacle box."""
    problems = []
    if math.hypot(x - waypoint[0], y - waypoint[1]) > search_radius + tol:
        problems.append(f"pose ({x:.3f}, {y:.3f}) beyond search radius")
    if len(centres):
        nearest = float(np.min(np.hypot(centres[:, 0] - x, centres[:, 1] - y)))
        if nearest <= inflation - tol:
            problems.append(f"pose ({x:.3f}, {y:.3f}) {nearest:.4f} m from an "
                            f"occupied cell centre")
    for lo, hi in boxes:
        if point_box_distance(x, y, (lo[0] - box_inflation, lo[1] - box_inflation),
                              (hi[0] + box_inflation, hi[1] + box_inflation)) \
                < inflation - tol:
            problems.append(f"pose ({x:.3f}, {y:.3f}) overlaps box {lo[:2]}-{hi[:2]}")
            break
    return problems


def ring_candidates(wx, wy, search_radius, ring_step, angular_step):
    """Candidate positions in the documented goal-search order: rings of
    radius 0, ring_step, ... up to search_radius, each from angle 0 upward."""
    radius = 0.0
    while radius <= search_radius + 1e-12:
        if radius == 0.0:
            angles = [0.0]
        else:
            n = max(1, int(math.ceil(2.0 * math.pi / angular_step)))
            angles = [k * angular_step for k in range(n)
                      if k * angular_step < 2.0 * math.pi]
        for theta in angles:
            yield wx + radius * math.cos(theta), wy + radius * math.sin(theta)
        radius += ring_step


def expected_goal(wx, wy, centres, boxes, search_radius, ring_step, angular_step,
                  inflation, box_inflation, margin=1e-6):
    """First clear candidate in search order, or None when there is none or
    when a candidate up to it lies within `margin` of a clearance boundary
    (so rounding could make the program decide it the other way)."""
    near = centres[np.hypot(centres[:, 0] - wx, centres[:, 1] - wy)
                   <= search_radius + inflation + 1.0] if len(centres) else centres
    for x, y in ring_candidates(wx, wy, search_radius, ring_step, angular_step):
        d = (float(np.min(np.hypot(near[:, 0] - x, near[:, 1] - y)))
             if len(near) else math.inf)
        if abs(d - inflation) < margin:
            return None
        if d <= inflation:
            continue
        clear = True
        for lo, hi in boxes:
            bd = point_box_distance(x, y, (lo[0] - box_inflation, lo[1] - box_inflation),
                                    (hi[0] + box_inflation, hi[1] + box_inflation))
            if abs(bd - inflation) < margin:
                return None
            if bd < inflation:
                clear = False
                break
        if clear:
            return x, y
    return None
