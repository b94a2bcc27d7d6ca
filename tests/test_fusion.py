import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from locoman import fusion
from locoman.errors import UsageError
from locoman.fusion import (DOWNSAMPLE_VOXEL, EPSILON, GATE_CELLS_PER_POINT, GATE_MAX_COORD,
                            TAU_SEM, Detection, InstanceGraph, geometric_similarity,
                            semantic_similarities, voxel_downsample)
from oracles import ingest_detection_loop, semantic_similarity, should_merge

ROOT = Path(__file__).resolve().parent.parent


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


class TestSemanticSimilarities:
    def test_bit_for_bit_semantic_similarity(self):
        rng = np.random.Generator(np.random.PCG64(330))
        for case in range(2000):
            dim, n = int(rng.integers(1, 40)), int(rng.integers(1, 20))
            rows = rng.normal(size=(n, dim)) * rng.uniform(1e-3, 1e3)
            if case % 2:
                rows /= np.sqrt((rows * rows).sum(axis=1))[:, None]  # unit, as nodes are
            f = rng.normal(size=dim)
            if case % 3 == 0:
                f = rows[rng.integers(n)] + rng.normal(scale=1e-3, size=dim)
            want = np.array([semantic_similarity(f, r) for r in rows])
            assert semantic_similarities(rows, f).tobytes() == want.tobytes()

    def test_no_rows(self):
        assert semantic_similarities(np.empty((0, 3)), np.ones(3)).shape == (0,)


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

    def test_neighbours_one_ulp_from_epsilon(self):
        """A neighbour at nextafter(eps, +-inf) or eps along the axes and the
        diagonals, about the origin and an offset centre, either side of the
        query: each point decides alone, so no miss is averaged away."""
        dirs = np.array([d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)],
                        dtype=float)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        case = 0
        for eps in (0.05, 0.01, 0.3, 1e-3):
            radii = [np.nextafter(eps, -np.inf), eps, np.nextafter(eps, np.inf),
                     eps * (1 + 1e-9), np.nextafter(eps * (1 + 1e-9), np.inf)]
            for centre in (np.zeros(3), np.array([1.3, -0.7, 2.1])):
                for r in radii:
                    ring = centre + r * dirs
                    for p in ring:
                        p = p[None]
                        assert geometric_similarity(p, centre[None], eps) == \
                            exact_geometric(p, centre[None], eps, case)
                        assert geometric_similarity(centre[None], p, eps) == \
                            exact_geometric(centre[None], p, eps, case + 1)
                        case += 2
                    # the whole ring as one tree: the nearest of 26 decides
                    assert geometric_similarity(centre[None], ring, eps) == \
                        exact_geometric(centre[None], ring, eps, 0)


class TestNearCount:
    """The neighbour count behind geometric_similarity and ingest: where it
    stops early, and the point sets it refuses."""

    def test_early_stop_on_the_side_of_need(self):
        rng = np.random.Generator(np.random.PCG64(362))
        for case in range(300):
            pi = rng.normal(scale=0.1, size=(int(rng.integers(1, 200)), 3))
            pj = rng.normal(scale=0.1, size=(int(rng.integers(1, 200)), 3))
            eps = rng.uniform(0.01, 0.1)
            full = fusion._near_count(pi, pj, eps)
            assert full / len(pi) == exact_geometric(pi, pj, eps, case)
            for need in (full - 1, full - 0.5, full, full + 0.5, rng.uniform(0, len(pi))):
                got = fusion._near_count(pi, pj, eps, need)
                assert (got > need) == (full > need) and got <= full

    def test_cells_numbered_exactly_or_refused(self):
        side = 1.0625 * EPSILON
        for x, ok in ((2.0**46 * side, True), (2.0**47 * side, False), (-2.0**47 * side, False)):
            node = np.array([[x, 0.0, 0.0]])
            probe = node + [[0.03, 0.0, 0.0], [0.0, 0.06, 0.0]]
            if ok:
                assert geometric_similarity(probe, node, EPSILON) == \
                    brute_force_geometric(probe, node, EPSILON) == 0.5
            else:
                with pytest.raises(UsageError):
                    geometric_similarity(probe, node, EPSILON)
        # 2**53 cells or more in all: about 2.08e5 cells on each axis
        for far, ok in ((1.0e4, True), (1.2e4, False)):
            node = np.array([[0.0, 0.0, 0.0], [far, far, far]])
            if ok:
                assert geometric_similarity(node + 0.01, node, EPSILON) == 1.0
            else:
                with pytest.raises(UsageError):
                    geometric_similarity(node + 0.01, node, EPSILON)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_refused(self, bad):
        for pi, pj in (([[0.0, bad, 0.0]], [[0.0, 0.0, 0.0]]),
                       ([[0.0, 0.0, 0.0]], [[bad, 0.0, 0.0]])):
            with pytest.raises(UsageError):
                geometric_similarity(np.array(pi), np.array(pj), EPSILON)


def _det(descriptor, points):
    return Detection(label="x", descriptor=np.asarray(descriptor, dtype=float),
                     points=np.asarray(points, dtype=float))


def _merges(first, det):
    """Whether `det` joins the node that `first` made in a one-node graph:
    `ingest_detection` lands it in that node or a new one, as the oracle's
    `should_merge` decides."""
    g = InstanceGraph(descriptor_dim=len(first.descriptor))
    g.ingest_detection(first)
    want = should_merge(det, g.nodes[0])
    got = g.ingest_detection(det) == 0
    assert got == want and len(g) == (1 if got else 2)
    return got


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
        first = _det(base, pts)

        at = _det(_descriptor_at_cosine(base, 0.8), pts)
        above = _det(_descriptor_at_cosine(base, 0.8 + 1e-9), pts)
        assert not _merges(first, at)  # exactly 0.8 is not > 0.8
        assert _merges(first, above)

    def test_geometric_boundary_strict(self):
        desc = np.ones(4)
        # 5 query points, node covers k of them exactly: geo = k/5
        node_pts = np.array([[float(i), 0.0, 0.0] for i in range(4)])
        first = _det(desc, node_pts)
        det_at = _det(desc, [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
                             [99, 0, 0]])  # geo = 4/5 = 0.8 exactly
        assert not _merges(first, det_at)
        det_above = _det(desc, np.vstack([node_pts, [0.001, 0, 0]]))  # geo = 1.0
        assert _merges(first, det_above)

    def test_both_criteria_required(self):
        base = np.zeros(8)
        base[0] = 1.0
        pts = np.array([[0.0, 0.0, 0.0]])
        first = _det(base, pts)
        sem_only = _det(base, [[5.0, 0, 0]])
        geo_only = _det(_descriptor_at_cosine(base, 0.5), pts)
        assert not _merges(first, sem_only)
        assert not _merges(first, geo_only)
        both = _det(base, pts)
        assert _merges(first, both)


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

    def test_large_offsets(self):
        rng = np.random.Generator(np.random.PCG64(33))
        for offset in (1e3, -1e6, 1e9, 3e12):
            for _ in range(20):
                n = int(rng.integers(1, 300))
                pts = rng.normal(0.0, rng.uniform(0.01, 1.0), (n, 3)) + offset * rng.choice(
                    [-1.0, 1.0], size=3)
                self._same(pts, float(rng.choice([0.02, 0.1, 1.0])))

    def test_wide_spans(self):
        rng = np.random.Generator(np.random.PCG64(34))
        for lo, hi, voxel in ((-1e16, 1e16, 1.0), (-2e6, 3e6, 0.02), (-1e4, 1e4, 1e-4)):
            # x spans up to 2e16 voxels; y and z keep the product in int64
            pts = np.column_stack([rng.uniform(lo, hi, 200), rng.uniform(-50, 50, 200),
                                   rng.uniform(0.0, 0.5, 200)])
            self._same(pts, voxel)
        # one axis alone spans nearly 2**63 voxels
        self._same(np.array([[-2.0**62, 0, 0], [2.0**62 - 1024, 0, 0], [0, 0, 0]]), 1.0)
        # the three spans' product is 2**63 - 1 = (7*73*127*337) * (7*92737) * 649657
        self._same(np.array([[0.0, 0, 0], [21870288, 649158, 649656], [5, 5, 5]]), 1.0)


class TestVoxelKeyBound:
    """The packed voxel key must fit in int64: the product of the three
    spans, in voxels, stays below 2**63 and every index is an int64."""

    def test_product_below_bound_accepted(self):
        pts = np.array([[0.0, 0, 0], [21870288, 649158, 649656]])  # product 2**63 - 1
        assert len(voxel_downsample(pts, 1.0)) == 2

    def test_product_at_bound_rejected(self):
        pts = np.array([[0.0, 0, 0], [2**21 - 1] * 3])  # product (2**21)**3 = 2**63
        with pytest.raises(UsageError):
            voxel_downsample(pts, 1.0)

    def test_far_points_not_merged(self):
        # cast to int64, both indices used to wrap to one voxel at the origin
        with pytest.raises(UsageError):
            voxel_downsample(np.array([[1e19, 0, 0], [-1e19, 0, 0]]), 0.02)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**63])
    def test_non_int64_index_rejected(self, bad):
        with pytest.raises(UsageError):
            voxel_downsample(np.array([[0.0, 0, 0], [bad, 0, 0]]), 1.0)


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


class TestDetectionValidation:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("descriptor", [[np.nan, 1.0], [np.inf, 1.0], [1e200, 1e200]])
    def test_non_finite_descriptor_rejected(self, descriptor):
        with pytest.raises(UsageError, match="detection descriptor must be finite"):
            _det(descriptor, [[0, 0, 0]])

    @pytest.mark.parametrize("descriptor", [[0.0, 0.0], [-0.0, -0.0]])
    def test_zero_descriptor_rejected(self, descriptor):
        with pytest.raises(UsageError, match="detection descriptor must be nonzero"):
            _det(descriptor, [[0, 0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(UsageError):
            _det([1, 0], [[0, 0, 0], [0, bad, 0]])

    @pytest.mark.parametrize("points", [[[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0],
                                        [[0.0, 0.0, 0.0], [1.0, 1.0]]],
                             ids=["pairs", "two_values", "ragged"])
    def test_points_not_n_by_3_rejected(self, points):
        # the first two used to raise numpy's reshape ValueError
        with pytest.raises(UsageError, match=r"detection points must form an \(N, 3\) array"):
            Detection(label="x", descriptor=np.array([1.0, 0.0]), points=points)

    def test_nan_point_never_reaches_a_node(self):
        # it used to join a node, and the next matching detection then
        # failed in scipy's KD-tree with a raw ValueError
        g = InstanceGraph(descriptor_dim=2)
        g.ingest_detection(_det([1, 0], [[0, 0, 0]]))
        with pytest.raises(UsageError):
            g.ingest_detection(_det([1, 0], [[np.nan, 0, 0]]))
        assert g.ingest_detection(_det([1, 0], [[0.001, 0, 0]])) == 0


def _ingest_stream(seed, steps, graph):
    """Detections of 5 overlapping objects: noisy views; descriptors one ulp
    either side of TAU_SEM, or at it, against a node of `graph` as it stands
    when the detection is drawn; and twin nodes, made from one raw descriptor
    with geo exactly 0.8, then matched both at once."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = 8
    bases = rng.normal(size=(5, dim))
    clouds = rng.uniform(-0.3, 0.3, (5, 1, 3)) + rng.uniform(-0.1, 0.1, (5, 60, 3))
    for _ in range(steps):
        kind = rng.choice(["view", "boundary", "twin"], p=[0.5, 0.3, 0.2])
        o = int(rng.integers(5))
        pts = clouds[o][rng.choice(60, size=int(rng.integers(5, 40)), replace=False)]
        if kind == "view" or not graph.nodes:
            desc = bases[o] + rng.normal(0, 0.15, dim)
            yield _det(desc, pts + rng.normal(0, 0.004, pts.shape))
        elif kind == "boundary":
            node = graph.nodes[int(rng.integers(len(graph.nodes)))]
            c = rng.choice([np.nextafter(TAU_SEM, 0), TAU_SEM, np.nextafter(TAU_SEM, 1)])
            yield _det(_descriptor_at_cosine(node.descriptor, c), node.points[:20])
        else:
            desc = bases[o] + rng.normal(0, 0.15, dim)
            near = pts[:8]
            yield _det(desc, near)
            yield _det(desc, np.vstack([near, near[:2] + 1.0]))  # geo = 8/10
            yield _det(desc, near[:4] + rng.normal(0, 0.002, (4, 3)))


class TestIngestOracle:
    """ingest_detection's vector semantic gate against the node-at-a-time
    loop in `tests/oracles.py`: the same ids and the same node bytes."""

    @staticmethod
    def _node_bytes(graph):
        return [(n.id, n.label, n.points.tobytes(), n.descriptor.tobytes(),
                 n.bbox_min.tobytes(), n.bbox_max.tobytes(), n.observation_count)
                for n in graph.nodes.values()]

    def test_streams_match_loop(self):
        ties, above, at_or_below = 0, 0, 0
        for seed in (331, 332, 333):
            got, want = InstanceGraph(descriptor_dim=8), InstanceGraph(descriptor_dim=8)
            for det in _ingest_stream(seed, 60, want):
                sems = [semantic_similarity(det.descriptor, n.descriptor)
                        for n in want.nodes.values() if should_merge(det, n)]
                ties += len(sems) > 1 and sems.count(max(sems)) > 1
                for n in want.nodes.values():
                    s = semantic_similarity(det.descriptor, n.descriptor)
                    if abs(s - TAU_SEM) <= np.spacing(TAU_SEM):
                        above += s > TAU_SEM
                        at_or_below += s <= TAU_SEM
                assert got.ingest_detection(det) == ingest_detection_loop(want, det)
                assert self._node_bytes(got) == self._node_bytes(want)
        # the streams reach the tie-break and both sides of the threshold's last ulp
        assert ties >= 3 and above >= 5 and at_or_below >= 5

    def test_twin_nodes_tie_to_lowest_id(self):
        g = InstanceGraph(descriptor_dim=4)
        near = np.array([[0.0, 0, 0], [0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01], [0.01, 0.01, 0],
                         [0.01, 0, 0.01], [0, 0.01, 0.01], [0.01, 0.01, 0.01]])
        desc = [0.3, -1.2, 0.5, 2.0]
        assert g.ingest_detection(_det(desc, near)) == 0
        assert g.ingest_detection(_det(desc, np.vstack([near, near[:2] + 1.0]))) == 1
        assert g.nodes[0].descriptor.tobytes() == g.nodes[1].descriptor.tobytes()
        assert g.ingest_detection(_det(desc, near[:4])) == 0


    @pytest.mark.parametrize("bad", [np.zeros(4), np.array([np.nan, 1.0, 0, 0]),
                                     np.array([0, -np.inf, 0, 0]), np.ones(8)],
                             ids=["zero", "nan", "inf", "long"])
    def test_bad_node_descriptor_raises_as_loop(self, bad):
        # a node descriptor a caller set to zeros used to score NaN with a
        # RuntimeWarning, fail the vector gate and add a new node; a longer
        # one split into extra rows and overran the node list (IndexError)
        errors = []
        for ingest in (InstanceGraph.ingest_detection, ingest_detection_loop):
            g = InstanceGraph(descriptor_dim=4)
            g.ingest_detection(_det([1, 0, 0, 0], [[0, 0, 0]]))
            g.nodes[0].descriptor = bad.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UsageError) as err:
                    ingest(g, _det([1, 0, 0, 0], [[0, 0, 0]]))
            errors.append(str(err.value))
            assert len(g) == 1
        assert errors[0] == errors[1]


@pytest.fixture
def geo_calls(monkeypatch):
    """Counts the checks that reach the neighbour count (`fusion._near_count`),
    which `geometric_similarity` and so the oracle loop call too."""
    calls = []
    real = fusion._near_count

    def counted(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(fusion, "_near_count", counted)
    return calls


def _voxel_span(k):
    """The smallest and the largest float x with floor(x / DOWNSAMPLE_VOXEL) == k
    (floor(x / voxel) never decreases as x grows)."""
    def first(k):  # the smallest float whose voxel index is k or more
        x = k * DOWNSAMPLE_VOXEL
        while np.floor(x / DOWNSAMPLE_VOXEL) >= k:
            x = np.nextafter(x, -np.inf)
        while np.floor(x / DOWNSAMPLE_VOXEL) < k:
            x = np.nextafter(x, np.inf)
        return x

    lo, hi = first(k), np.nextafter(first(k + 1), -np.inf)
    assert np.floor(lo / DOWNSAMPLE_VOXEL) == k == np.floor(hi / DOWNSAMPLE_VOXEL)
    return lo, hi


def _corners(voxel):
    """The 8 corners of a voxel (an index triple), its extreme members."""
    spans = [_voxel_span(k) for k in voxel]
    return [np.array(c) for c in itertools.product(*spans)]


class TestVoxelGate:
    """The voxel gate decides a check only when the count would merge: a
    detection point in a node point's voxel or a face neighbour of it lies
    closer than EPSILON, and no other neighbour counts."""

    FACES = [d for d in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, d)) <= 1]
    EDGES = [d for d in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, d)) == 2]
    # about the origin, at negative indices, and just below GATE_MAX_COORD
    BASES = [(0, 0, 0), (-7, -1, -13), (3, -4, 0),
             tuple([int(GATE_MAX_COORD / DOWNSAMPLE_VOXEL) - 2] * 3)]

    @staticmethod
    def _ingest_pair(node_pt, det_pt):
        """ids from the graph and the oracle loop after a one-point node and
        a one-point detection with the same descriptor."""
        ids = []
        for ingest in (InstanceGraph.ingest_detection, ingest_detection_loop):
            g = InstanceGraph(descriptor_dim=2)
            g.ingest_detection(_det([1, 0], [node_pt]))
            ids.append(ingest(g, _det([1, 0], [det_pt])))
        return ids

    @pytest.mark.parametrize("base", BASES)
    def test_face_neighbour_far_corners_are_sure_hits(self, base, geo_calls):
        for step in self.FACES:
            near = _corners(base)
            far = _corners(tuple(b + s for b, s in zip(base, step)))
            for q, p in itertools.product(near, far):
                assert np.abs(q).max() <= GATE_MAX_COORD
                # the count reads the pair closer than EPSILON ...
                assert geometric_similarity(p[None], q[None], EPSILON) == 1.0
                geo_calls.clear()
                g = InstanceGraph(descriptor_dim=2)
                g.ingest_detection(_det([1, 0], [q]))
                # ... and the gate merges it without the count
                assert g.ingest_detection(_det([1, 0], [p])) == 0
                assert geo_calls == []

    def test_corners_lie_on_voxel_faces(self):
        # the corners are the extreme floats of each voxel: k * voxel itself
        # where it floors to k, or the next float up
        for k in (0, 5, -5, -1):
            lo, hi = _voxel_span(k)
            assert lo == k * DOWNSAMPLE_VOXEL or lo == np.nextafter(k * DOWNSAMPLE_VOXEL, np.inf)
            assert np.floor(np.nextafter(hi, np.inf) / DOWNSAMPLE_VOXEL) == k + 1

    @pytest.mark.parametrize("base", BASES[:2])
    def test_edge_neighbour_is_never_a_sure_hit(self, base, geo_calls):
        for step in self.EDGES:
            other = tuple(b + s for b, s in zip(base, step))
            pairs = list(itertools.product(_corners(base), _corners(other)))
            dists = [np.linalg.norm(p - q) for q, p in pairs]
            (q_far, p_far), (q_near, p_near) = pairs[np.argmax(dists)], pairs[np.argmin(dists)]
            assert max(dists) > EPSILON > min(dists)  # about 0.060 m and about 0
            for q, p, merged in ((q_far, p_far, False), (q_near, p_near, True)):
                geo_calls.clear()
                got, want = self._ingest_pair(q, p)
                assert got == want == (0 if merged else 1)
                # the graph's check reached the count, as did the loop's
                assert len(geo_calls) == 2

    def test_points_outside_the_box_never_count(self, geo_calls):
        # past the node's box each detection point is clipped onto its edge,
        # which no node voxel's neighbour reaches: every check goes to the count
        node = np.array([[0.01, 0.01, 0.01], [0.05, 0.01, 0.01]])
        for step in itertools.product((-1, 0, 1), repeat=3):
            if not any(step):
                continue
            for far in (0.09, 1.0, 1e9):
                det = node + far * np.array(step)
                geo_calls.clear()
                ids = []
                for ingest in (InstanceGraph.ingest_detection, ingest_detection_loop):
                    g = InstanceGraph(descriptor_dim=2)
                    g.ingest_detection(_det([1, 0], node))
                    ids.append(ingest(g, _det([1, 0], det)))
                assert ids == [1, 1] and len(geo_calls) == 2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_magnitude_limit(self, sign, geo_calls):
        at = sign * GATE_MAX_COORD
        past = np.nextafter(at, sign * np.inf)
        for node_x, gated in ((at, True), (past, False)):
            q = np.array([node_x, at, 0.0])
            # the far end of q's face neighbour away from the origin
            k = int(np.floor(node_x / DOWNSAMPLE_VOXEL) + sign)
            p = np.array([_voxel_span(k)[sign > 0], at, 0.004])
            geo_calls.clear()
            assert self._ingest_pair(q, p) == [0, 0]
            # the loop calls geometric_similarity once, the graph only past the limit
            assert len(geo_calls) == (1 if gated else 2)


class TestVoxelGateState:
    """The gate's voxels are derived from the node's points, so every check
    answers as the oracle loop does after the points change."""

    @staticmethod
    def _pair(points):
        graphs = []
        for _ in range(2):
            g = InstanceGraph(descriptor_dim=2)
            g.ingest_detection(_det([1, 0], points))
            graphs.append(g)
        return graphs

    @staticmethod
    def _check(got, want, det):
        assert got.ingest_detection(det) == ingest_detection_loop(want, det)
        assert TestIngestOracle._node_bytes(got) == TestIngestOracle._node_bytes(want)

    def _grid(self):
        return np.array(list(itertools.product(range(4), repeat=3))) * 0.03

    def test_replaced_points(self, geo_calls):
        pts = self._grid()
        got, want = self._pair(pts)
        probe = _det([1, 0], pts + 0.004)
        assert got.ingest_detection(probe) == 0 and geo_calls == []  # the gate decided
        assert ingest_detection_loop(want, probe) == 0
        for g in (got, want):
            g.nodes[0].points = g.nodes[0].points + 5.0
        self._check(got, want, probe)  # a box of the old points would merge it
        assert len(got) == 2
        for g in (got, want):
            g.nodes[1].points = g.nodes[0].points.copy()
        self._check(got, want, _det([1, 0], got.nodes[0].points[:5] + 0.002))

    def test_points_written_in_place(self, geo_calls):
        pts = self._grid()
        got, want = self._pair(pts)
        probe = _det([1, 0], pts + 0.004)
        assert got.ingest_detection(probe) == 0 and geo_calls == []
        assert ingest_detection_loop(want, probe) == 0
        for g in (got, want):
            g.nodes[0].points[:, 0] += 3.0
        self._check(got, want, probe)
        assert len(got) == 2
        for g in (got, want):
            g.nodes[0].points[:, 0] -= 3.0
            g.nodes[0].points[0] = np.nan
        with pytest.raises(UsageError):  # the count refuses a NaN node point, in both
            got.ingest_detection(probe)
        with pytest.raises(UsageError):
            ingest_detection_loop(want, probe)

    def test_cap_boundary(self, geo_calls):
        # two points `span` voxels apart along x: the box is (span + 5) * 5 * 5
        # voxels; 20 * 25 = 500 cells fit the cap of two points, 21 * 25 = 525 do not
        cap = GATE_CELLS_PER_POINT * 2
        for span, gated in ((15, True), (16, False)):
            assert ((span + 5) * 25 <= cap) == gated
            pts = np.array([[0.01, 0.01, 0.01], [0.01 + span * DOWNSAMPLE_VOXEL, 0.01, 0.01]])
            got, want = self._pair(pts)
            geo_calls.clear()
            self._check(got, want, _det([1, 0], pts + 0.003))
            assert len(geo_calls) == (1 if gated else 2)

    def test_box_past_cap_is_never_allocated(self, geo_calls):
        # a 205**3-voxel box: 8.6 MB of cells, far past two points' cap
        pts = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        g = InstanceGraph(descriptor_dim=2)
        g.ingest_detection(_det([1, 0], pts))
        det = _det([1, 0], pts + 0.001)
        tracemalloc.start()
        try:
            assert g.ingest_detection(det) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(geo_calls) == 1  # the count decided

    def test_crowded_cell_count_stays_bounded(self, geo_calls):
        # 10**5 node points in one 2 cm voxel, so in one count cell; 36 of
        # 40 detection points sit in its edge-neighbour voxels, under 2 cm
        # from it (hits, but no sure hits), 4 far away. Compared all at once,
        # the 36 points' own cell alone makes 3.6e6 pairs, hundreds of MB
        rng = np.random.Generator(np.random.PCG64(361))
        crowd = rng.uniform(0.001, 0.019, (10**5, 3))
        near = np.c_[rng.uniform(0.021, 0.03, (36, 2)), rng.uniform(0.001, 0.019, 36)]
        det = _det([1, 0], np.vstack([near, near[:4] + 1.0]))
        got, want = self._pair(np.zeros((1, 3)))
        for g in (got, want):
            g.nodes[0].points = crowd.copy()
        tracemalloc.start()
        try:
            nid = got.ingest_detection(det)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(geo_calls) == 1  # the gate left it to the count
        assert nid == ingest_detection_loop(want, det) == 0  # a share of 0.9
        assert TestIngestOracle._node_bytes(got) == TestIngestOracle._node_bytes(want)
        assert peak < 40_000_000


def _lattice(rng):
    """Surface points of a box standing on the floor, 5 cm apart, by face:
    top, then y-low, y-high, x-low, x-high sides."""
    lo = np.r_[rng.uniform(-1.0, 1.0, 2), 0.0]
    hi = lo + np.r_[rng.uniform(0.3, 0.6, 2), rng.uniform(0.4, 0.9)]
    xs, ys, zs = (np.linspace(a, b, max(2, int(round((b - a) / 0.05)) + 1))
                  for a, b in zip(lo, hi))
    faces = [np.array([(x, y, hi[2]) for x in xs for y in ys])]
    faces += [np.array([(x, y, z) for x in xs for z in zs]) for y in (lo[1], hi[1])]
    faces += [np.array([(x, y, z) for y in ys for z in zs]) for x in (lo[0], hi[0])]
    return faces


def _lattice_stream(seed, steps):
    """Views of 4 boxes as an egocentric camera draws them: the top and one or
    two sides, each lattice point kept with probability 0.7 and moved by
    3 mm noise. Most views show the sides of the box's first view again; one
    in three shows sides drawn afresh, often ones its node has not seen."""
    rng = np.random.Generator(np.random.PCG64(seed))
    boxes = [_lattice(rng) for _ in range(4)]
    bases = []
    while len(bases) < 4:
        b = rng.normal(size=16)
        b /= np.linalg.norm(b)
        if all(abs(b @ u) < 0.45 for u in bases):
            bases.append(b)
    first = {}
    for _ in range(steps):
        o = int(rng.integers(4))
        side = int(rng.integers(1, 5))
        sides = [side] if rng.random() < 0.5 else [side, 1 + side % 4]
        if rng.random() < 2 / 3:
            sides = first.setdefault(o, sides)
        pts = np.vstack([boxes[o][f] for f in [0] + sides])
        pts = pts[rng.random(len(pts)) < 0.7]
        desc = bases[o] + 0.04 * rng.normal(size=16)
        yield _det(desc, pts + rng.normal(0.0, 0.003, pts.shape))


def test_count_loads_no_scipy():
    """A view whose sure hits fall short, in a fresh process: the count
    merges it, with no scipy module loaded."""
    code = textwrap.dedent("""
        import json, sys
        import numpy as np
        from locoman import fusion
        counts = []
        real = fusion._near_count
        fusion._near_count = lambda *args: counts.append(len(args[0])) or real(*args)
        # a plane of points 5 cm apart at z = 0.05; the view, 1.5 cm off on
        # each axis, leaves the voxel of each point with an odd index, so
        # only the 16 of 49 with both x and y even are sure hits
        plane = np.array([(0.05 * i, 0.05 * j, 0.05) for i in range(7) for j in range(7)])
        g = fusion.InstanceGraph(descriptor_dim=2)
        ids = [g.ingest_detection(fusion.Detection("box", np.array([1.0, 0.0]), p))
               for p in (plane, plane + 0.015, plane + 1.0)]
        print(json.dumps({"ids": ids, "counts": counts,
                          "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
    """)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    got = json.loads(out.stdout)
    assert got["ids"] == [0, 0, 1] and got["counts"][0] == 33
    assert got["scipy"] == []


def test_lattice_views_take_both_paths(geo_calls):
    gated = fallbacks = 0
    for seed in (351, 352):
        got, want = InstanceGraph(descriptor_dim=16), InstanceGraph(descriptor_dim=16)
        for det in _lattice_stream(seed, 40):
            checks = sum(semantic_similarity(det.descriptor, n.descriptor) > TAU_SEM
                         for n in got.nodes.values())
            geo_calls.clear()
            nid = got.ingest_detection(det)
            gated += checks - len(geo_calls)
            fallbacks += len(geo_calls)
            assert nid == ingest_detection_loop(want, det)
            assert TestIngestOracle._node_bytes(got) == TestIngestOracle._node_bytes(want)
    # the two streams make 43 gate decisions and 112 counts
    assert gated >= 30 and fallbacks >= 30
