"""Instance-level semantic graph built by fusing per-frame detections.

Two detections refer to the same object when their descriptors' cosine
similarity exceeds TAU_SEM AND the fraction of the incoming detection's
points with a nearest neighbor in the node within radius EPSILON exceeds
TAU_GEO (both strict inequalities). The thresholds are fixed: 0.8 each, a
5 cm radius, and node points downsampled on a 2 cm voxel grid.

Ingest takes its decisions in three steps, each exact against the
one-node-at-a-time form (`tests/oracles.py`):

1. a semantic gate scores every node at once (`semantic_similarities`,
   bit for bit `semantic_similarity` per node), so `> TAU_SEM` and the
   `(cosine, -id)` tie-break choose as the scalar cosine does;
2. `should_merge` decides each node that passed the gate. Its KD-tree query
   stops looking past EPSILON * (1 + 1e-9): a neighbour closer than EPSILON
   has a squared distance below EPSILON**2, so below the tree's squared
   bound, and is still found, with the same distance;
3. node points are downsampled by one stable sort of a packed int64 voxel
   key, (k0*s1 + k1)*s2 + k2 over the indices shifted to their minimum: a
   bijection that keeps their lexicographic order, so the voxel runs and
   their sums are those of a sort by (x, y, z) index. A point set whose
   packed key would not fit in int64 is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import dot, norm, row_dot, unit


TAU_SEM = 0.8
TAU_GEO = 0.8
EPSILON = 0.05           # NN radius, meters
DOWNSAMPLE_VOXEL = 0.02  # meters


@dataclass
class Detection:
    """One per-frame observation: label, unit-free descriptor, world points."""

    label: str
    descriptor: np.ndarray
    points: np.ndarray  # (N, 3) world frame

    def __post_init__(self):
        self.descriptor = np.asarray(self.descriptor, dtype=float)
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if norm(self.descriptor) == 0.0:
            raise UsageError("detection descriptor must be nonzero")
        if len(self.points) == 0:
            raise UsageError("detection must carry at least one point")
        # a NaN point would reach the node's KD-tree and fail there with
        # scipy's error; a descriptor whose norm overflows fuses to zero
        if not math.isfinite(norm(self.descriptor)):
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


def semantic_similarity(f_i: np.ndarray, f_j: np.ndarray) -> float:
    """Cosine similarity of two descriptors, in [-1, 1]."""
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    if f_i.shape != f_j.shape:
        raise UsageError(f"descriptor dimension mismatch: {f_i.shape} vs {f_j.shape}")
    ni, nj = norm(f_i), norm(f_j)
    if ni == 0.0 or nj == 0.0:
        raise UsageError("descriptors must be nonzero")
    return dot(f_i, f_j) / (ni * nj)


def semantic_similarities(descriptors: np.ndarray, f: np.ndarray) -> np.ndarray:
    """semantic_similarity(f, row) for each row of an (n, d) array, bit for
    bit: `row_dot`'s rows are `dot`'s kernel, divided in the same order."""
    return row_dot(descriptors, f) / (norm(f) * np.sqrt(row_dot(descriptors, descriptors)))


def geometric_similarity(points_i: np.ndarray, points_j: np.ndarray,
                         epsilon: float) -> float:
    """Fraction of points_i with a nearest neighbor in points_j closer than epsilon.

    Asymmetric by construction: points_i is the query side.
    """
    from scipy.spatial import cKDTree  # here: over half of a cold `import locoman`

    points_i = np.asarray(points_i, dtype=float).reshape(-1, 3)
    points_j = np.asarray(points_j, dtype=float).reshape(-1, 3)
    if len(points_i) == 0 or len(points_j) == 0:
        raise UsageError("point sets must be non-empty")
    # an unbalanced, uncompacted tree builds in half the time and answers
    # the same nearest distances; points past the bound read inf
    tree = cKDTree(points_j, balanced_tree=False, compact_nodes=False)
    dists, _ = tree.query(points_i, k=1, distance_upper_bound=epsilon * (1 + 1e-9))
    return float(np.count_nonzero(dists < epsilon)) / len(points_i)


def should_merge(det, node: InstanceNode) -> bool:
    """True iff both merge criteria strictly exceed their thresholds.

    The incoming detection is the query side of the geometric criterion so a
    partial new view of a large known object still merges.
    """
    sem = semantic_similarity(det.descriptor, node.descriptor)
    if sem <= TAU_SEM:
        return False
    return geometric_similarity(det.points, node.points, EPSILON) > TAU_GEO


def voxel_downsample(points: np.ndarray, voxel: float) -> np.ndarray:
    """Replace each occupied voxel by the centroid of its points (deterministic).

    Voxels are ordered by their (x, y, z) index. Raises UsageError when the
    points span more voxels than an int64 key can number.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if voxel <= 0.0 or len(points) == 0:
        return points.copy()
    cells = np.floor(points / voxel)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    # NaN fails both comparisons; past them every index casts to int64 exactly
    if not ((lo >= -2.0**63).all() and (hi < 2.0**63).all()):
        raise UsageError(f"voxel indices {lo}..{hi} must be finite int64 values")
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) >= 2**63:
        raise UsageError(f"points span {spans} voxels: more than an int64 key can number")
    # each shifted index lies in [0, span), so int64 wrap-around leaves it exact
    idx = cells.astype(np.int64) - lo.astype(np.int64)
    keys = (idx[:, 0] * spans[1] + idx[:, 1]) * spans[2] + idx[:, 2]
    order = np.argsort(keys, kind="stable")
    keys, points = keys[order], points[order]
    # the keys are sorted, so each voxel is one run of equal keys
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[starts, len(keys)])
    sums = np.add.reduceat(points, starts, axis=0)
    return sums / counts[:, None]


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
        # gate every node on its cosine at once, then let should_merge decide
        # the few that pass; the descriptor matrix is rebuilt per call, since
        # callers may replace a node's descriptor
        nodes = list(self.nodes.values())
        sem = semantic_similarities(
            np.array([n.descriptor for n in nodes]).reshape(-1, self.d), det.descriptor)
        candidates = [i for i in np.flatnonzero(sem > TAU_SEM) if should_merge(det, nodes[i])]
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
