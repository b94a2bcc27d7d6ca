"""Instance-level semantic graph built by fusing per-frame detections.

Two detections refer to the same object when their descriptors' cosine
similarity exceeds TAU_SEM AND the fraction of the incoming detection's
points with a nearest neighbor in the node within radius EPSILON exceeds
TAU_GEO (both strict inequalities). The thresholds are fixed: 0.8 each, a
5 cm radius, and node points downsampled on a 2 cm voxel grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import dot, norm, unit


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
    tree = cKDTree(points_j)
    dists, _ = tree.query(points_i, k=1)
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
    """Replace each occupied voxel by the centroid of its points (deterministic)."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if voxel <= 0.0 or len(points) == 0:
        return points.copy()
    keys = np.floor(points / voxel).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys, points = keys[order], points[order]
    # the keys are sorted, so each voxel is one run of equal rows
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
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
        candidates = [n for n in self.nodes.values() if should_merge(det, n)]
        if not candidates:
            return self._add_node(det)
        # several matches: highest semantic similarity wins, ties to lowest id
        best = max(candidates,
                   key=lambda n: (semantic_similarity(det.descriptor, n.descriptor), -n.id))
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
