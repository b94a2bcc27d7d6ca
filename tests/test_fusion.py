import itertools

import numpy as np
import pytest

from locoman.errors import UsageError
from locoman.fusion import (Detection, InstanceGraph, geometric_similarity,
                            semantic_similarity, should_merge, voxel_downsample)


def brute_force_geometric(points_i, points_j, epsilon):
    """Independent all-pairs oracle for the nearest-neighbor fraction."""
    hits = 0
    for p in points_i:
        d = np.sqrt(np.sum((points_j - p) ** 2, axis=1))
        if np.min(d) < epsilon:
            hits += 1
    return hits / len(points_i)


def grid_hash_geometric(points_i, points_j, epsilon):
    """brute_force_geometric's distance expression over only the pairs whose
    grid cells are neighbours (27 cells around each query point's). A cell's
    side exceeds epsilon, so no point closer than epsilon is further away."""
    side = 1.0625 * epsilon
    cell_i = np.floor(points_i / side).astype(np.int64)
    cell_j = np.floor(points_j / side).astype(np.int64)
    lo = np.minimum(cell_i.min(axis=0), cell_j.min(axis=0)) - 1
    span = np.maximum(cell_i.max(axis=0), cell_j.max(axis=0)) + 2 - lo

    def flat(cells):  # one int64 key per cell, linear in the cell's coordinates
        return (cells[:, 0] * span[1] + cells[:, 1]) * span[2] + cells[:, 2]

    key_j = flat(cell_j - lo)
    order = np.argsort(key_j, kind="stable")
    occupied, first, count = np.unique(key_j[order], return_index=True, return_counts=True)
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
    keys = (flat(steps)[:, None] + flat(cell_i - lo)[None, :]).ravel()
    at = np.minimum(np.searchsorted(occupied, keys), len(occupied) - 1)
    found = occupied[at] == keys
    start, n = first[at[found]], count[at[found]]
    # each found cell's run start..start+n-1 of the sorted points_j
    query = np.repeat(np.tile(np.arange(len(points_i)), len(steps))[found], n)
    near = order[np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)]
    d = np.sqrt(np.sum((points_j[near] - points_i[query]) ** 2, axis=1))
    hit = np.zeros(len(points_i), dtype=bool)
    hit[query[d < epsilon]] = True
    return np.count_nonzero(hit) / len(points_i)


def exact_geometric(points_i, points_j, epsilon, case):
    """grid_hash_geometric, checked against brute_force_geometric on every
    10th case."""
    want = grid_hash_geometric(points_i, points_j, epsilon)
    if case % 10 == 0:
        assert want == brute_force_geometric(points_i, points_j, epsilon)
    return want


class TestSemanticSimilarity:
    def test_parallel_and_antiparallel(self):
        f = np.array([1.0, 2.0, 3.0])
        assert semantic_similarity(f, 2 * f) == pytest.approx(1.0)
        assert semantic_similarity(f, -f) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert semantic_similarity(np.array([1.0, 0]), np.array([0, 1.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            semantic_similarity(np.ones(3), np.ones(4))

    def test_zero_descriptor(self):
        with pytest.raises(UsageError):
            semantic_similarity(np.zeros(3), np.ones(3))


class TestGeometricSimilarity:
    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.PCG64(42))
        for case in range(500):
            ni = rng.integers(1, 1000)
            nj = rng.integers(1, 1000)
            scale = rng.uniform(0.05, 2.0)
            pi = rng.normal(scale=scale, size=(ni, 3))
            pj = rng.normal(scale=scale, size=(nj, 3))
            eps = rng.uniform(0.01, 0.5)
            assert geometric_similarity(pi, pj, eps) == exact_geometric(pi, pj, eps, case)

    def test_asymmetric(self):
        # small cluster fully inside a big one: query side decides the score
        big = np.random.Generator(np.random.PCG64(0)).uniform(-1, 1, size=(200, 3))
        small = big[:10]
        assert geometric_similarity(small, big, 0.05) == 1.0
        assert geometric_similarity(big, small, 0.05) < 1.0

    def test_strict_inequality_at_epsilon(self):
        pi = np.array([[0.0, 0.0, 0.0]])
        pj = np.array([[0.05, 0.0, 0.0]])
        assert geometric_similarity(pi, pj, 0.05) == 0.0
        assert geometric_similarity(pi, pj, 0.05 + 1e-12) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            geometric_similarity(np.zeros((0, 3)), np.ones((1, 3)), 0.1)


def _det(descriptor, points):
    return Detection(label="x", descriptor=np.asarray(descriptor, dtype=float),
                     points=np.asarray(points, dtype=float))


def _node_from(det):
    g = InstanceGraph(descriptor_dim=len(det.descriptor))
    nid = g.ingest_detection(det)
    return g.nodes[nid]


def _descriptor_at_cosine(base, c):
    """Unit vector with exact-ish cosine c against unit base."""
    base = base / np.linalg.norm(base)
    ortho = np.zeros_like(base)
    ortho[1] = 1.0
    ortho = ortho - np.dot(ortho, base) * base
    ortho /= np.linalg.norm(ortho)
    return c * base + np.sqrt(1 - c * c) * ortho


class TestMergeBoundary:
    def test_semantic_boundary_strict(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        base = np.zeros(8)
        base[0] = 1.0
        node = _node_from(_det(base, pts))

        at = _det(_descriptor_at_cosine(base, 0.8), pts)
        above = _det(_descriptor_at_cosine(base, 0.8 + 1e-9), pts)
        assert not should_merge(at, node)  # exactly 0.8 is not > 0.8
        assert should_merge(above, node)

    def test_geometric_boundary_strict(self):
        desc = np.ones(4)
        # 5 query points, node covers k of them exactly: geo = k/5
        node_pts = np.array([[float(i), 0.0, 0.0] for i in range(4)])
        node = _node_from(_det(desc, node_pts))
        det_at = _det(desc, [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                             [99, 0, 0]])  # geo = 4/5 = 0.8 exactly
        assert not should_merge(det_at, node)
        det_above = _det(desc, np.vstack([node_pts, [0.001, 0, 0]]))  # geo = 1.0
        assert should_merge(det_above, node)

    def test_both_criteria_required(self):
        base = np.zeros(8)
        base[0] = 1.0
        pts = np.array([[0.0, 0.0, 0.0]])
        node = _node_from(_det(base, pts))
        sem_only = _det(base, [[5.0, 0, 0]])
        geo_only = _det(_descriptor_at_cosine(base, 0.5), pts)
        assert not should_merge(sem_only, node)
        assert not should_merge(geo_only, node)
        both = _det(base, pts)
        assert should_merge(both, node)


class TestVoxelDownsample:
    def test_centroid_per_voxel(self):
        pts = np.array([[0.001, 0.0, 0.0], [0.003, 0.0, 0.0], [0.5, 0.5, 0.5]])
        out = voxel_downsample(pts, 0.02)
        assert len(out) == 2
        assert np.allclose(sorted(out[:, 0]), [0.002, 0.5])

    def test_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pts = rng.uniform(-1, 1, size=(500, 3))
        a = voxel_downsample(pts, 0.1)
        b = voxel_downsample(pts[::-1], 0.1)
        assert np.allclose(a, b)

    def test_zero_voxel_is_identity(self):
        pts = np.ones((3, 3))
        assert np.allclose(voxel_downsample(pts, 0.0), pts)


def unique_voxel_downsample(points, voxel):
    """voxel_downsample with its runs found by np.unique, which sorts the
    already sorted keys again: the byte oracle of the run-length version."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if voxel <= 0.0 or len(points) == 0:
        return points.copy()
    keys = np.floor(points / voxel).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys, points = keys[order], points[order]
    _, starts, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    sums = np.add.reduceat(points, starts, axis=0)
    return sums / counts[:, None]


class TestVoxelDownsampleOracle:
    def _same(self, pts, voxel):
        got, want = voxel_downsample(pts, voxel), unique_voxel_downsample(pts, voxel)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), pts

    def test_random_point_sets(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(300):
            n = int(rng.integers(1, 400))
            pts = rng.normal(0.0, rng.uniform(0.01, 3.0), (n, 3))
            dup = rng.integers(0, n, size=n // 3)
            pts[rng.integers(0, n, size=dup.size)] = pts[dup]  # exact duplicates
            self._same(pts, float(rng.choice([0.01, 0.05, 0.2, 1.0])))

    def test_edge_sets(self):
        self._same(np.array([[0.1, -0.2, 0.3]]), 0.05)  # a single point
        self._same(np.full((7, 3), -1.234), 0.1)  # duplicates of one point
        self._same(np.array([[0.01, 0.02, 0.03], [0.04, 0.01, 0.0],
                             [0.0, 0.09, 0.05]]), 0.1)  # one shared voxel
        self._same(-np.abs(np.random.Generator(np.random.PCG64(32))
                           .normal(size=(50, 3))), 0.25)  # negative coordinates
        self._same(np.array([[-0.0, 0.0, -1e-9], [0.0, -0.0, 1e-9]]), 0.1)

    def test_pass_throughs(self):
        pts = np.array([[0.3, -0.0, 1.0], [0.3, 0.0, 1.0]])
        self._same(pts, 0.0)
        self._same(pts, -0.1)
        self._same(np.empty((0, 3)), 0.05)


class TestInstanceGraph:
    def test_new_node_per_distinct_object(self):
        g = InstanceGraph(descriptor_dim=4)
        a = g.ingest_detection(_det([1, 0, 0, 0], [[0, 0, 0]]))
        b = g.ingest_detection(_det([0, 1, 0, 0], [[5, 5, 5]]))
        assert a != b
        assert len(g) == 2

    def test_repeat_detection_fuses(self):
        g = InstanceGraph(descriptor_dim=4)
        a = g.ingest_detection(_det([1, 0, 0, 0], [[0, 0, 0], [0.01, 0, 0]]))
        b = g.ingest_detection(_det([1, 0, 0, 0], [[0.005, 0, 0]]))
        assert a == b
        assert len(g) == 1
        assert g.nodes[a].observation_count == 2

    def test_descriptor_count_weighted_and_unit(self):
        g = InstanceGraph(descriptor_dim=2)
        nid = g.ingest_detection(_det([1, 0], [[0, 0, 0]]))
        g.ingest_detection(_det([np.cos(0.3), np.sin(0.3)], [[0, 0, 0]]))
        node = g.nodes[nid]
        assert np.linalg.norm(node.descriptor) == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1, 0]) + np.array([np.cos(0.3), np.sin(0.3)])
        expected /= np.linalg.norm(expected)
        assert np.allclose(node.descriptor, expected, atol=1e-12)

    def test_bbox_union_monotone(self):
        g = InstanceGraph(descriptor_dim=2)
        nid = g.ingest_detection(_det([1, 0], [[0, 0, 0], [1, 1, 1]]))
        # 5 of 6 points near the node (geo > 0.8), one outlier stretches the box
        second = _det([1, 0], [[0, 0, 0], [0.001, 0, 0], [0.002, 0, 0],
                               [1, 1, 1], [1.001, 1, 1], [2, 2, 2]])
        assert g.ingest_detection(second) == nid
        node = g.nodes[nid]
        assert np.allclose(node.bbox_min, [0, 0, 0])
        assert np.allclose(node.bbox_max, [2, 2, 2])

    def test_summary_id_ordered(self):
        g = InstanceGraph(descriptor_dim=4)
        g.ingest_detection(_det([1, 0, 0, 0], [[0, 0, 0]]))
        g.ingest_detection(_det([0, 1, 0, 0], [[5, 5, 5]]))
        summary = g.graph_summary()
        assert [rec["id"] for rec in summary] == [0, 1]
        assert np.allclose(summary[1]["center"], [5, 5, 5])

    def test_dimension_check(self):
        g = InstanceGraph(descriptor_dim=4)
        with pytest.raises(UsageError):
            g.ingest_detection(_det([1, 0], [[0, 0, 0]]))
