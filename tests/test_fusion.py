import itertools

import numpy as np
import pytest

from locoman.errors import UsageError
from locoman.fusion import (TAU_SEM, Detection, InstanceGraph, geometric_similarity,
                            semantic_similarities, semantic_similarity, should_merge,
                            voxel_downsample)
from oracles import ingest_detection_loop


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
        with pytest.raises(UsageError):
            _det(descriptor, [[0, 0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(UsageError):
            _det([1, 0], [[0, 0, 0], [0, bad, 0]])

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
