import itertools

import numpy as np
import pytest

from vvcodec import clustering
from vvcodec.clustering import ClusterOptions, ClusterResult, canonicalize_labels, kmeans


def brute_force_sse(points: np.ndarray, k: int) -> float:
    """Exact minimum SSE over every assignment of points to k clusters."""
    best = float("inf")
    n = len(points)
    for assignment in itertools.product(range(k), repeat=n):
        sse = 0.0
        for j in range(k):
            members = points[[i for i in range(n) if assignment[i] == j]]
            if len(members):
                centroid = members.mean(axis=0)
                sse += float(((members - centroid) ** 2).sum())
        best = min(best, sse)
    return best


class TestKmeans:
    def test_k1_is_global_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.random((12, 3))
        res = kmeans(pts, ClusterOptions(k=1))
        assert np.allclose(res.centroids[0], pts.mean(axis=0))
        assert set(res.labels.tolist()) == {1}

    def test_two_scalar_clusters(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = canonicalize_labels(kmeans(pts, ClusterOptions(k=2, seed=0)))
        # brute-force oracle: optimal partition is {0,1} | {10,11}
        assert brute_force_sse(pts, 2) == pytest.approx(1.0)
        assert res.labels.tolist() == [1, 1, 2, 2]
        assert res.centroids.ravel().tolist() == [0.5, 10.5]
        assert res.sse == pytest.approx(1.0)

    def test_k_equals_distinct_points(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        res = kmeans(pts, ClusterOptions(k=3, seed=1))
        assert res.sse == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            d = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            if k > n:
                continue
            pts = rng.random((n, d)) * 10
            res = kmeans(pts, ClusterOptions(k=k, restarts=20, seed=7))
            want = brute_force_sse(pts, k)
            assert res.sse <= want * (1 + 1e-9) + 1e-12

    def test_sse_history_non_increasing(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            pts = rng.random((40, 4))
            res = kmeans(pts, ClusterOptions(k=5, seed=seed, restarts=2))
            hist = res.sse_history
            assert all(
                later <= earlier * (1 + 1e-12) + 1e-12
                for earlier, later in zip(hist, hist[1:])
            )

    def test_reported_sse_matches_recomputation(self):
        rng = np.random.default_rng(4)
        pts = rng.random((30, 6))
        res = kmeans(pts, ClusterOptions(k=4, seed=9))
        recomputed = float(
            ((pts - res.centroids[res.labels - 1]) ** 2).sum()
        )
        assert res.sse == pytest.approx(recomputed, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.random((50, 3))
        opts = ClusterOptions(k=6, seed=11, restarts=3)
        first = kmeans(pts, opts)
        second = kmeans(pts, opts)
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.centroids, second.centroids)

    def test_explicit_initial_centroids(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = kmeans(
            pts,
            ClusterOptions(k=2),
            initial_centroids=np.array([[0.0], [10.0]]),
        )
        assert res.sse == pytest.approx(1.0)

    def test_duplicate_points_more_clusters_than_values(self):
        pts = np.array([[1.0], [1.0], [1.0], [2.0]])
        res = kmeans(pts, ClusterOptions(k=3, seed=0))
        assert res.sse == 0.0

    def test_empty_cluster_skips_a_lone_farthest_point(self):
        # no point is nearest to -100; 10 is farthest from it but alone in
        # its cluster, so the repair moves 0.1, the next farthest
        res = kmeans(
            np.array([[0.0], [0.1], [10.0]]),
            ClusterOptions(k=3, max_iterations=1),
            initial_centroids=np.array([[0.05], [10.0], [-100.0]]),
        )
        assert res.labels.tolist() == [1, 3, 2]

    def test_period_two_cycle_ends(self):
        # duplicate initial centroids leave an empty cluster whose repair
        # flips labels between two equal-SSE states on every iteration
        pts = np.repeat(np.arange(8.0), 4)[:, None]
        opts = ClusterOptions(k=8, seed=0, restarts=1)
        res = kmeans(pts, opts)
        assert len(res.sse_history) < opts.max_iterations

    def test_k_larger_than_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 1)), ClusterOptions(k=3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kmeans([[0.0, 1.0], [2.0]], ClusterOptions(k=1))

    def test_bad_options(self):
        with pytest.raises(ValueError):
            ClusterOptions(k=0)
        with pytest.raises(ValueError):
            ClusterOptions(k=1, restarts=0)


class TestCanonicalize:
    def _result(self, labels, k):
        labels = np.asarray(labels)
        centroids = np.arange(k, dtype=float).reshape(k, 1) * 10
        return ClusterResult(labels=labels, centroids=centroids, sse=0.5)

    def test_swap(self):
        res = canonicalize_labels(self._result([2, 2, 1], 2))
        assert res.labels.tolist() == [1, 1, 2]
        assert res.centroids.ravel().tolist() == [10.0, 0.0]
        assert res.sse == 0.5

    def test_identity(self):
        res = canonicalize_labels(self._result([1, 2, 2, 3], 3))
        assert res.labels.tolist() == [1, 2, 2, 3]
        assert res.centroids.ravel().tolist() == [0.0, 10.0, 20.0]

    def test_first_appearance_scan(self):
        res = canonicalize_labels(self._result([3, 1, 3, 2], 3))
        assert res.labels.tolist() == [1, 2, 1, 3]

    def test_idempotent_and_partition_preserving(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(1, 5, 20)
        res = self._result(labels, 6)
        once = canonicalize_labels(res)
        twice = canonicalize_labels(once)
        assert np.array_equal(once.labels, twice.labels)
        assert np.array_equal(once.centroids, twice.centroids)
        # same equivalence classes as the input
        for i in range(20):
            for j in range(20):
                assert (labels[i] == labels[j]) == (
                    once.labels[i] == once.labels[j]
                )

    def test_unused_clusters_keep_centroids(self):
        res = canonicalize_labels(self._result([2, 2], 3))
        assert res.labels.tolist() == [1, 1]
        assert sorted(res.centroids.ravel().tolist()) == [0.0, 10.0, 20.0]
        assert res.centroids[0, 0] == 10.0


def brute_force_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid by the full distance matrix; argmin keeps the lowest
    index on ties."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(-1).argmin(1)


class TestAssign:
    def test_random_floats(self):
        rng = np.random.default_rng(12)
        pts = rng.random((500, 7))
        cents = rng.random((40, 7))
        assert np.array_equal(
            clustering._assign(pts, cents), brute_force_assign(pts, cents)
        )

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(13)
        pts = rng.integers(0, 4, (300, 2)).astype(np.float64)
        # duplicated centroids that coincide with many points
        cents = pts[rng.integers(0, 300, 12)]
        cents = np.concatenate([cents, cents[::-1]])
        got = clustering._assign(pts, cents)
        assert np.array_equal(got, brute_force_assign(pts, cents))
        assert (got < 12).all()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunk_boundaries(self, monkeypatch, rows):
        rng = np.random.default_rng(14)
        pts = rng.integers(0, 6, (10, 3)).astype(np.float64)
        cents = rng.integers(0, 6, (5, 3)).astype(np.float64)
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * len(cents))
        assert np.array_equal(
            clustering._assign(pts, cents), brute_force_assign(pts, cents)
        )
