"""Instance-level semantic graph built by fusing per-frame detections.

Two detections refer to the same object when their descriptors' cosine
similarity exceeds TAU_SEM AND the fraction of the incoming detection's
points with a nearest neighbor in the node within radius EPSILON exceeds
TAU_GEO (both strict inequalities). The thresholds are fixed: 0.8 each, a
5 cm radius, and node points downsampled on a 2 cm voxel grid.

Ingest takes its decisions in three steps, each exact against the
one-node-at-a-time form in `tests/oracles.py` (its scalar
`semantic_similarity` and its `should_merge`, which scores both criteria):

1. a semantic gate scores every node at once (`semantic_similarities`,
   bit for bit the scalar cosine per node, and raising where it raises),
   so `> TAU_SEM` and the `(cosine, -id)` tie-break choose as the scalar
   cosine does. A node that fails it is not looked at again;
2. each node that passed is merged when more than TAU_GEO of the
   detection's points have a node point closer than EPSILON. A voxel gate
   finds most of these hits: a detection point whose DOWNSAMPLE_VOXEL voxel,
   or one of its 6 face neighbours, holds a node point lies within
   sqrt(6) * DOWNSAMPLE_VOXEL (about 0.0490 m) of that point, so closer than
   EPSILON. When these sure hits alone make up more than TAU_GEO of the
   points the merge is certain; otherwise `_near_count` counts the rest
   exactly, with the oracle's distance expression over neighbouring cells
   a little wider than EPSILON, and stops once the share is decided either
   way. The gate leaves every point to the count for a node past
   GATE_MAX_COORD or GATE_CELLS_PER_POINT. The node's voxels and cells are
   built from its points at each check and kept nowhere;
3. node points are downsampled by one stable sort of a packed int64 voxel
   key, (k0*s1 + k1)*s2 + k2 over the indices shifted to their minimum: a
   bijection that keeps their lexicographic order, so the voxel runs and
   their sums are those of a sort by (x, y, z) index. A point set whose
   packed key would not fit in int64 is refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import norm, row_dot, unit


TAU_SEM = 0.8
TAU_GEO = 0.8
EPSILON = 0.05           # NN radius, meters
DOWNSAMPLE_VOXEL = 0.02  # meters
# Past this coordinate magnitude (meters) a node is left to the count.
# Within it, rounding moves a voxel boundary of floor(p / DOWNSAMPLE_VOXEL)
# by under 1e-9 m, a millionth of the 1.0 mm by which a face-adjacent pair's
# bound sqrt(6) * DOWNSAMPLE_VOXEL falls short of EPSILON.
GATE_MAX_COORD = 1e6
# The voxel gate's box holds at most this many one-byte cells per node point,
# so it costs a fixed multiple of the node's own 24 bytes a point; a sparser
# node, spread over a wider box, is left to the count.
GATE_CELLS_PER_POINT = 256
# The count's 27 cell steps, nearest first: 1 cell, 6 faces, 12 edges, 8 corners
_STEPS = np.array(sorted(itertools.product((-1, 0, 1), repeat=3), key=np.count_nonzero), float)
# The count compares at most this many pairs at once, or one point's with the node's
_PAIRS_PER_CHUNK = 2**16


@dataclass
class Detection:
    """One per-frame observation: label, unit-free descriptor, world points."""

    label: str
    descriptor: np.ndarray
    points: np.ndarray  # (N, 3) world frame

    def __post_init__(self):
        self.descriptor = np.asarray(self.descriptor, dtype=float)
        try:
            self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        except ValueError as exc:
            raise UsageError(f"detection points must form an (N, 3) array: {exc}") from None
        length = norm(self.descriptor)
        if length == 0.0:
            raise UsageError("detection descriptor must be nonzero")
        if len(self.points) == 0:
            raise UsageError("detection must carry at least one point")
        # a NaN point would join a node and fail each later count against
        # it; a descriptor whose norm overflows fuses to zero
        if not math.isfinite(length):
            raise UsageError("detection descriptor must be finite with a finite norm")
        if not np.isfinite(self.points).all():
            raise UsageError("detection points must be finite")


@dataclass
class InstanceNode:
    id: int
    label: str
    descriptor: np.ndarray
    points: np.ndarray
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    observation_count: int = 1


def semantic_similarities(descriptors: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cosine similarity, in [-1, 1], of f with each row of an (n, d) array:
    bit for bit the scalar `semantic_similarity(f, row)` of `tests/oracles.py`,
    as `row_dot`'s rows are `dot`'s kernel, divided in the same order. It
    raises where that raises for any row: a zero or non-finite norm, whose
    NaN cosine would otherwise fail the gate silently."""
    nf, rows = norm(f), np.sqrt(row_dot(descriptors, descriptors))
    if not (0.0 < nf < math.inf and ((0.0 < rows) & (rows < math.inf)).all()):
        raise UsageError("descriptors must be nonzero and finite")
    return row_dot(descriptors, f) / (nf * rows)


def geometric_similarity(points_i: np.ndarray, points_j: np.ndarray,
                         epsilon: float) -> float:
    """Fraction of points_i with a nearest neighbor in points_j closer than epsilon.

    Asymmetric by construction: points_i is the query side.
    """
    points_i = np.asarray(points_i, dtype=float).reshape(-1, 3)
    return _near_count(points_i, points_j, epsilon) / len(points_i)


def _near_count(points_i, points_j, epsilon: float, need: float | None = None) -> int:
    """How many points_i (an (N, 3) array) have a point of points_j closer than
    epsilon, by the oracle's distance expression over the 27 cells of side
    1.0625 * epsilon around each, nearest first. Given `need`, it stops once the
    count passes need or can no longer, returning a count on the full one's side."""
    points_j = np.asarray(points_j, dtype=float).reshape(-1, 3)
    if len(points_i) == 0 or len(points_j) == 0:
        raise UsageError("point sets must be non-empty")
    side = 1.0625 * epsilon
    cells = np.floor(np.ascontiguousarray(points_j.T) / side)  # one row an axis
    lo, hi = cells.min(axis=1) - 2, cells.max(axis=1) + 2
    # below 2**47 a cell index is off by under 1/32 of a cell, so a pair closer
    # than epsilon (0.94 of a side) lies in neighbouring cells; flat keys below
    # 2**53 are whole floats, so exact. NaN fails too
    if not (np.isfinite(points_i).all() and np.abs([lo, hi]).max() < 2.0**47
            and math.prod(spans := (hi - lo + 1).tolist()) < 2.0**53):
        raise UsageError("points must be finite, and the node's cells fewer than 2**53 "
                         "and within 2**47 of the origin")

    def flat(c):  # one row an axis, packed as voxel_downsample packs its keys
        return (c[0] * spans[1] + c[1]) * spans[2] + c[2]

    keys = flat(cells - lo[:, None])
    order = np.argsort(keys)
    keys, points_j = keys[order], points_j[order]
    # each node cell is the run of its key from bounds[c]; a sentinel cell follows
    bounds = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    cell_keys, sizes = np.append(keys[bounds[:-1]], math.inf), np.append(np.diff(bounds), 0)
    query = np.floor(np.ascontiguousarray(points_i.T) / side)
    # a point outside the node's cells widened by one has no neighbour
    left = np.flatnonzero(((query > lo[:, None]) & (query < hi[:, None])).all(axis=0))
    key = flat(query[:, left] - lo[:, None])
    deltas, hits = flat(_STEPS.T), 0
    for steps in (deltas[:1], deltas[1:7], deltas[7:19], deltas[19:]):
        if not len(left) or need is not None and (hits > need or hits + len(left) <= need):
            break
        hit = np.zeros(len(left), dtype=bool)
        chunk = max(1, _PAIRS_PER_CHUNK // (len(steps) * int(sizes.max())))
        for at in range(0, len(left), chunk):
            near = (key[at:at + chunk, None] + steps).ravel()
            cell = np.searchsorted(cell_keys, near)
            count = np.where(cell_keys[cell] == near, sizes[cell], 0)
            owner = np.repeat(np.arange(len(near)) // len(steps) + at, count)
            run = bounds[cell] - np.cumsum(count) + count  # each found cell's sorted points
            near = np.arange(len(owner)) + np.repeat(run, count)
            d = np.sqrt(np.sum((points_j[near] - points_i[left[owner]]) ** 2, axis=1))
            hit[owner[d < epsilon]] = True
        hits += np.count_nonzero(hit)
        left, key = left[~hit], key[~hit]
    return hits


def voxel_downsample(points: np.ndarray, voxel: float) -> np.ndarray:
    """Replace each occupied voxel by the centroid of its points (deterministic).

    Voxels are ordered by their (x, y, z) index. Raises UsageError when the
    points span more voxels than an int64 key can number.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if voxel <= 0.0 or len(points) == 0:
        return points.copy()
    # one row per axis: a row's reductions and arithmetic run several times
    # faster than a (n, 3) column's, on the same elements
    cells = np.floor(np.ascontiguousarray(points.T) / voxel)
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    # NaN fails both comparisons; past them every index casts to int64 exactly
    if not ((lo >= -2.0**63).all() and (hi < 2.0**63).all()):
        raise UsageError(f"voxel indices {lo}..{hi} must be finite int64 values")
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) >= 2**63:
        raise UsageError(f"points span {spans} voxels: more than an int64 key can number")
    # each shifted index lies in [0, span), so int64 wrap-around leaves it exact
    idx = cells.astype(np.int64) - lo.astype(np.int64)[:, None]
    keys = (idx[0] * spans[1] + idx[1]) * spans[2] + idx[2]
    order = np.argsort(keys, kind="stable")
    keys, points = keys[order], points[order]
    # the keys are sorted, so each voxel is one run of equal keys
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    counts = np.concatenate((starts[1:], [len(keys)])) - starts
    sums = np.add.reduceat(points, starts, axis=0)
    return sums / counts[:, None]


def _sure_hits(points: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Which detection points (voxel indices `cells`, one row an axis) have a
    voxel, or a face neighbour of it, that holds one of `points`: each lies
    within sqrt(6) * DOWNSAMPLE_VOXEL < EPSILON of that point. None do for no
    points, a coordinate past GATE_MAX_COORD (or NaN), or a voxel box of more
    than GATE_CELLS_PER_POINT cells a point: the count decides them all.

    The box covers the points' voxels widened by two voxels a side, so a
    detection index clipped into it lands on a cell no neighbour reaches.
    Nothing is kept between calls: the box is built from the points as they
    are now."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return np.zeros(cells.shape[1], dtype=bool)
    by_axis = np.ascontiguousarray(points.T)
    pmin, pmax = by_axis.min(axis=1).tolist(), by_axis.max(axis=1).tolist()
    if not all(abs(x) <= GATE_MAX_COORD for x in pmin + pmax):  # NaN fails too
        return np.zeros(cells.shape[1], dtype=bool)
    lo = [math.floor(x / DOWNSAMPLE_VOXEL) - 2 for x in pmin]
    s0, s1, s2 = [math.floor(x / DOWNSAMPLE_VOXEL) + 3 - l for x, l in zip(pmax, lo)]
    if s0 * s1 * s2 > GATE_CELLS_PER_POINT * len(points):
        return np.zeros(cells.shape[1], dtype=bool)
    lo = np.array(lo, dtype=float)[:, None]
    # flat indices are whole floats below 2**53, so exact; packed as
    # voxel_downsample packs its keys
    rel = np.floor(by_axis / DOWNSAMPLE_VOXEL)
    rel -= lo
    occupied = np.zeros(s0 * s1 * s2, dtype=bool)
    occupied[((rel[0] * s1 + rel[1]) * s2 + rel[2]).astype(np.intp)] = True
    # a node voxel is two cells inside the box, so a flat shift by one
    # stride moves it to its face neighbour and never wraps to another row
    near = occupied.copy()
    for step in (s1 * s2, s2, 1):
        near[step:] |= occupied[:-step]
        near[:-step] |= occupied[step:]
    rel = cells - lo
    np.maximum(rel, 0.0, out=rel)
    np.minimum(rel, [[s0 - 1.0], [s1 - 1.0], [s2 - 1.0]], out=rel)
    flat = ((rel[0] * s1 + rel[1]) * s2 + rel[2]).astype(np.intp)
    return near[flat]


class InstanceGraph:
    """Mutable set of fused instance nodes. Single-writer: serialize ingestion."""

    def __init__(self, descriptor_dim: int):
        self.d = int(descriptor_dim)
        # no node is removed: a new node's id is the node count, and insertion
        # order is id order
        self.nodes: dict[int, InstanceNode] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def ingest_detection(self, det: Detection) -> int:
        """Fuse a detection into the best-matching node, or create a new one.

        Returns the id of the node the detection ended up in.
        """
        if det.descriptor.shape != (self.d,):
            raise UsageError(
                f"descriptor dimension {det.descriptor.shape[0]} != graph dimension {self.d}")
        # gate every node on its cosine at once, then decide the few that pass
        # from their voxels and the neighbour count; the detection is the
        # query side, so a partial new view of a large known object still
        # merges. The descriptor matrix is rebuilt per call, since callers may
        # replace a node's descriptor, even with one of another length
        nodes = list(self.nodes.values())
        if bad := [np.shape(n.descriptor) for n in nodes if np.shape(n.descriptor) != (self.d,)]:
            raise UsageError(f"descriptor dimension mismatch: {(self.d,)} vs {bad[0]}")
        sem = semantic_similarities(
            np.array([n.descriptor for n in nodes]).reshape(-1, self.d), det.descriptor)
        passed = np.flatnonzero(sem > TAU_SEM)
        cells = (np.floor(np.ascontiguousarray(det.points.T) / DOWNSAMPLE_VOXEL)
                 if len(passed) else None)
        candidates = []
        for i in passed:  # k / n > TAU_GEO exactly when k > TAU_GEO * n, for n below 2**50
            sure = _sure_hits(nodes[i].points, cells)
            need = TAU_GEO * len(det.points) - np.count_nonzero(sure)
            if need < 0 or _near_count(det.points[~sure], nodes[i].points, EPSILON, need) > need:
                candidates.append(i)
        if not candidates:
            return self._add_node(det)
        # several matches: highest semantic similarity wins, ties to lowest id
        best = nodes[max(candidates, key=lambda i: (sem[i], -nodes[i].id))]
        self._fuse(best, det)
        return best.id

    def _add_node(self, det: Detection) -> int:
        nid = len(self.nodes)
        desc = unit(det.descriptor)
        pts = voxel_downsample(det.points, DOWNSAMPLE_VOXEL)
        self.nodes[nid] = InstanceNode(
            id=nid, label=det.label, descriptor=desc, points=pts,
            bbox_min=det.points.min(axis=0), bbox_max=det.points.max(axis=0))
        return nid

    def _fuse(self, node: InstanceNode, det: Detection) -> None:
        n = node.observation_count
        node.descriptor = unit(n * node.descriptor + unit(det.descriptor))
        node.points = voxel_downsample(
            np.vstack([node.points, det.points]), DOWNSAMPLE_VOXEL)
        # bbox grows monotonically: union with the raw detection extents
        node.bbox_min = np.minimum(node.bbox_min, det.points.min(axis=0))
        node.bbox_max = np.maximum(node.bbox_max, det.points.max(axis=0))
        node.observation_count = n + 1

    def graph_summary(self) -> list[dict]:
        """Deterministic (id-ordered) symbolic view for task decomposition."""
        out = []
        for node in self.nodes.values():
            center = 0.5 * (node.bbox_min + node.bbox_max)
            extents = node.bbox_max - node.bbox_min
            out.append({
                "id": node.id,
                "label": node.label,
                "center": [float(c) for c in center],
                "extents": [float(e) for e in extents],
            })
        return out
