import itertools
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import adversarial_image
from hypothesis import given, settings
from hypothesis import strategies as st

from vvcodec import clustering
from vvcodec.clustering import ClusterOptions, ClusterResult, canonicalize_labels, kmeans
from vvcodec.imaging import blocks_at_level


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

    @settings(settings.get_profile("fuzz"), max_examples=200)
    @given(
        st.integers(1, 40), st.integers(1, 3), st.integers(1, 40),
        st.integers(1, 3), st.integers(1, 3), st.booleans(),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_every_cluster_owns_a_point(
        self, n, dim, k, restarts, max_iterations, equal_start, seed
    ):
        # canonicalize_labels relies on it: duplicate-heavy integer points,
        # often fewer distinct than k, and starts with every centroid equal
        rng = np.random.default_rng(seed)
        k = min(k, n)
        pts = rng.integers(0, 3, (n, dim)).astype(np.float64)
        opts = ClusterOptions(
            k=k, max_iterations=max_iterations, restarts=restarts, seed=seed
        )
        start = np.repeat(pts[:1], k, axis=0) if equal_start else None
        res = kmeans(pts, opts, initial_centroids=start)
        assert np.array_equal(np.unique(res.labels), np.arange(1, k + 1))

    def test_empty_cluster_skips_a_lone_farthest_point(self):
        # no point is nearest to -100; 10 is farthest from it but alone in
        # its cluster, so the repair moves 0.1, the next farthest
        res = kmeans(
            np.array([[0.0], [0.1], [10.0]]),
            ClusterOptions(k=3, max_iterations=1),
            initial_centroids=np.array([[0.05], [10.0], [-100.0]]),
        )
        assert res.labels.tolist() == [1, 3, 2]

    def test_equal_empty_centroids_repair_distinct_points(self):
        # four bitwise-equal starting centroids: the lowest index wins every
        # point nearest them, and the three others go empty in one iteration;
        # the three repairs share one distance array, and each must still
        # take a point that its predecessors left alone
        pts = np.arange(24.0).reshape(12, 2) ** 1.5
        start = np.concatenate([np.repeat(pts[3:4], 4, axis=0), pts[[0, 9]]])
        assert not np.isin([1, 2, 3], clustering._assign(pts, start).labels).any()
        opts = ClusterOptions(k=6, max_iterations=1)
        res = kmeans(pts, opts, initial_centroids=start)
        assert np.bincount(res.labels)[2:5].tolist() == [1, 1, 1]
        assert_matches_reference(pts, opts, initial_centroids=start)
        assert_matches_reference(pts, ClusterOptions(k=6), initial_centroids=start)

    def test_sse_refreshes_every_member_of_a_moved_cluster(self):
        # the second iteration moves only point 2, from the cluster of 6, 10
        # and 11 to that of 0 and 1: both centroids move, so every point's
        # residual changes, not only the one whose label did
        pts = np.array([[0.0], [1.0], [2.0], [6.0], [10.0], [11.0]])
        res = kmeans(pts, ClusterOptions(k=2), np.array([[0.0], [2.0]]))
        assert res.labels.tolist() == [1, 1, 1, 2, 2, 2]
        assert res.sse_history == [51.25, 16.0, 16.0]

    def test_equal_sse_restarts_keep_the_earliest(self):
        # every restart reaches {0, 1} | {10, 11} at SSE 1.0, under either
        # numbering; the result must be the earliest restart's descent
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        opts = ClusterOptions(k=2, seed=5)
        descents = [
            kmeans(pts, ClusterOptions(k=2), initial_centroids=pts[
                np.random.default_rng([opts.seed, restart])
                .choice(len(pts), size=opts.k, replace=False)
            ])
            for restart in range(opts.restarts)
        ]
        assert {d.sse for d in descents} == {1.0}
        first, last = descents[0], descents[-1]
        assert first.labels.tolist() != last.labels.tolist()
        res = kmeans(pts, opts)
        assert np.array_equal(res.labels, first.labels)
        assert np.array_equal(res.centroids, first.centroids)
        assert res.sse_history == first.sse_history

    def test_period_two_cycle_ends(self):
        # duplicate initial centroids leave an empty cluster whose repair
        # flips labels between two equal-SSE states on every iteration
        pts = np.repeat(np.arange(8.0), 4)[:, None]
        opts = ClusterOptions(k=8, seed=0, restarts=1)
        res = kmeans(pts, opts)
        assert len(res.sse_history) < opts.max_iterations

    def test_scratch_memory_is_bounded(self):
        # n=4096, k=1024: 32 MiB per full n x k score block
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 256, (4096, 64)).astype(np.float64)
        tracemalloc.start()
        try:
            res = kmeans(pts, ClusterOptions(k=1024, max_iterations=6, restarts=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.sse_history) > 1
        assert peak < 10 * 2 ** 20

    def test_tie_heavy_level_matches_reference(self):
        # the first V=1024 level of the 256-px dither: many blocks and
        # sampled centroids repeat, so many rows tie exactly and are decided
        # by scoring their chunk whole
        pts = blocks_at_level(adversarial_image("dither", 256), 6).astype(np.float64)
        assert pts.shape == (4096, 16)
        assert_matches_reference(pts, ClusterOptions(k=1024, restarts=1))

    def test_k_larger_than_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 1)), ClusterOptions(k=3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kmeans([[0.0, 1.0], [2.0]], ClusterOptions(k=1))
        for points in (np.zeros(3), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="^points must be a nonempty 2-D"):
                kmeans(points, ClusterOptions(k=1))
        with pytest.raises(
            ValueError, match=r"^initial centroids must have shape \(2, 3\)$"
        ):
            kmeans(np.zeros((4, 3)), ClusterOptions(k=2), np.zeros((2, 2)))

    def test_bad_options(self):
        with pytest.raises(ValueError):
            ClusterOptions(k=0)
        with pytest.raises(ValueError):
            ClusterOptions(k=1, restarts=0)
        with pytest.raises(ValueError, match="^max_iterations must be >= 1$"):
            ClusterOptions(k=1, max_iterations=0)


class TestCanonicalize:
    def _result(self, labels, k):
        labels = np.asarray(labels)
        centroids = np.arange(k, dtype=float).reshape(k, 1) * 10
        return ClusterResult(
            labels=labels, centroids=centroids, sse=0.5, sse_history=[]
        )

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
        labels = rng.integers(1, 7, 20)
        assert len(np.unique(labels)) == 6
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

    def test_unused_cluster_raises(self):
        with pytest.raises(ValueError, match="2 of 3 clusters own no point"):
            canonicalize_labels(self._result([2, 2], 3))


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
            clustering._assign(pts, cents).labels, brute_force_assign(pts, cents)
        )

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(13)
        pts = rng.integers(0, 4, (300, 2)).astype(np.float64)
        # duplicated centroids that coincide with many points
        cents = pts[rng.integers(0, 300, 12)]
        cents = np.concatenate([cents, cents[::-1]])
        got = clustering._assign(pts, cents).labels
        assert np.array_equal(got, brute_force_assign(pts, cents))
        assert (got < 12).all()

    def test_empty_window_raises(self):
        # a tile's window always holds its rows' guesses; an empty one is a
        # fault, and scoring it must raise, not leave rows unwritten
        with pytest.raises(ValueError):
            clustering._nearest(np.ones((3, 2)), np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunk_boundaries(self, monkeypatch, rows):
        rng = np.random.default_rng(14)
        pts = rng.integers(0, 6, (10, 3)).astype(np.float64)
        cents = rng.integers(0, 6, (5, 3)).astype(np.float64)
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * len(cents))
        assert np.array_equal(
            clustering._assign(pts, cents).labels, brute_force_assign(pts, cents)
        )


def full_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmin of 0.5*||c||^2 - p.c over every point, in the row chunks of
    clustering._CHUNK_BYTES: the full pass, with its rounding."""
    half_c2 = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, clustering._CHUNK_BYTES // (8 * len(centroids)))
    return np.concatenate([
        (half_c2 - points[start:start + rows] @ centroids.T).argmin(axis=1)
        for start in range(0, len(points), rows)
    ])


def reference_lloyd(points, centroids, max_iterations):
    """Lloyd with a full assignment on every iteration, the same empty-cluster
    repair and the same stop rule as clustering.kmeans."""
    k = len(centroids)
    recent, history = [], []
    for _ in range(max_iterations):
        labels = full_assign(points, centroids)
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            d2 = ((points - centroids[j]) ** 2).sum(axis=1)
            d2[counts[labels] < 2] = -1.0
            p = d2.argmax()
            counts[labels[p]] -= 1
            labels[p] = j
            counts[j] = 1
        sums = np.stack(
            [np.bincount(labels, weights=points[:, d], minlength=k)
             for d in range(points.shape[1])],
            axis=1,
        )
        centroids = sums / np.maximum(counts, 1)[:, None]
        sse = float(((points - centroids[labels]) ** 2).sum())
        history.append(sse)
        if any(np.array_equal(labels, old) for old in recent):
            break
        recent = [labels] + recent[:1]
    return labels + 1, centroids, sse, history


def reference_kmeans(points, opts, initial_centroids=None):
    if initial_centroids is not None:
        return reference_lloyd(points, initial_centroids, opts.max_iterations)
    best = None
    for restart in range(opts.restarts):
        rng = np.random.default_rng([opts.seed & clustering._SEED_MASK, restart])
        idx = rng.choice(len(points), size=opts.k, replace=False)
        result = reference_lloyd(points, points[idx], opts.max_iterations)
        if best is None or result[2] < best[2]:
            best = result
    return best


def assert_matches_reference(points, opts, initial_centroids=None):
    labels, centroids, sse, history = reference_kmeans(
        points, opts, initial_centroids
    )
    res = kmeans(points, opts, initial_centroids=initial_centroids)
    assert np.array_equal(res.labels, labels)
    assert np.array_equal(res.centroids, centroids)
    assert res.sse == sse
    assert res.sse_history == history


def assert_same_as_full_pass(points, prev_centroids, centroids):
    prev = clustering._assign(points, prev_centroids)
    got = clustering._assign(points, centroids, prev)
    want = clustering._assign(points, centroids)
    assert np.array_equal(got.labels, want.labels)
    # a score rescored in a block that is not a whole chunk may round unlike
    # the full pass's
    half_c2 = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    p2 = np.einsum("ij,ij->i", points, points)
    margin, _ = clustering._margins(p2, points.shape[1], half_c2)
    assert (np.abs(got.scores - want.scores) <= margin).all()
    assert np.array_equal(want.labels, full_assign(points, centroids))


class TestIncrementalAssign:
    """Lloyd's assignment rescores only the points a moved centroid can
    reach; it must give the full pass's labels, and scores within the
    screening margin of the full pass's."""

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("k", [16, 24, 13])
    def test_random_floats(self, monkeypatch, rows, k):
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        rng = np.random.default_rng(k + rows)
        pts = rng.random((200, 5)) * 10
        for seed in range(3):
            assert_matches_reference(
                pts, ClusterOptions(k=k, seed=seed, restarts=2)
            )

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("k", [8, 16, 40])
    def test_duplicate_heavy_integers(self, monkeypatch, rows, k):
        # few distinct values: coincident centroids, empty-cluster repairs
        # and exact ties between moved and unmoved centroids
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        rng = np.random.default_rng(100 + k + rows)
        for levels, dim in ((3, 1), (4, 2), (2, 4)):
            pts = rng.integers(0, levels, (160, dim)).astype(np.float64)
            for seed in range(3):
                assert_matches_reference(
                    pts, ClusterOptions(k=k, seed=seed, restarts=2)
                )
            assert_matches_reference(
                pts, ClusterOptions(k=k), initial_centroids=pts[:k] * 0.5
            )

    def test_full_size_level(self):
        # a V=1024 level's shape at the default chunk size: 4096 points
        # into 1024 clusters
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 256, (4096, 4)).astype(np.float64)
        assert_matches_reference(pts, ClusterOptions(k=1024, restarts=1))

    def test_one_point_to_rescore(self):
        # one centroid moves, and it is the winner of exactly one point:
        # that point alone is rescored, in a one-row block (which can go
        # through gemv and round unlike its chunk)
        rng = np.random.default_rng(21)
        pts = rng.random((300, 16)) * 255
        cents = rng.random((1024, 16)) * 255
        owned = np.bincount(clustering._assign(pts, cents).labels, minlength=1024)
        for j in np.flatnonzero(owned == 1)[:8]:
            moved = cents.copy()
            moved[j] += 1e-3
            assert_same_as_full_pass(pts, cents, moved)

    def test_exact_tie_scores_its_chunk_whole(self, monkeypatch):
        # 200 points in chunks of 16 rows; centroid 3 wins the far points 37
        # and 150 alone and moves to tie exactly with centroid 5 at point 37:
        # both are rescored in one tile, whose window holds 3 and 5; 37
        # cannot be certified, so its chunk (rows 32..47) is scored whole,
        # and 150's is not
        k, rows, n = 16, 16, 200
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        rng = np.random.default_rng(24)
        pts = rng.integers(0, 10, (n, 2)).astype(np.float64)
        pts[37], pts[150] = (1000.0, 0.0), (999.0, 0.0)
        cents = pts[rng.choice(30, k, replace=False)]
        cents[3], cents[5] = (1000.5, 0.0), (1002.0, 0.0)
        prev = clustering._assign(pts, cents)
        assert np.flatnonzero(prev.labels == 3).tolist() == [37, 150]
        moved = cents.copy()
        moved[3] = (998.0, 0.0)

        tiles, chunks = [], []
        nearest = clustering._nearest

        def spy(points, centroids, half_c2):
            # the whole-chunk pass scores the centroids as given
            (chunks if centroids is moved else tiles).append(points.copy())
            return nearest(points, centroids, half_c2)

        monkeypatch.setattr(clustering, "_nearest", spy)
        got = clustering._assign(pts, moved, prev)
        monkeypatch.setattr(clustering, "_nearest", nearest)
        assert len(tiles) == 1
        assert sorted(tiles[0].tolist()) == sorted(pts[[37, 150]].tolist())
        assert len(chunks) == 1 and np.array_equal(chunks[0], pts[32:48])
        assert got.labels[[37, 150]].tolist() == [3, 3]
        assert np.array_equal(got.labels, full_assign(pts, moved))
        assert_same_as_full_pass(pts, cents, moved)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_centroids_sharing_one_mean(self, monkeypatch, rows):
        # every centroid has mean 5, so every window must hold all of them
        k = 12
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        rng = np.random.default_rng(25)
        pts = rng.random((150, 2)) * 10
        t = np.arange(k) - 5.5
        cents = np.stack([5.0 + t, 5.0 - t], axis=1)
        assert (cents.sum(axis=1) == 10.0).all()
        got = clustering._assign(pts, cents)
        assert np.array_equal(got.labels, full_assign(pts, cents))
        assert_same_as_full_pass(pts, cents + 0.25, cents)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_dim1_points_at_midpoints(self, monkeypatch, rows):
        # at dim 1 the equal-average bound is an equality: a point midway
        # between its old winner's new place and a lower-indexed centroid
        # has that centroid exactly on its window's edge, and ties with it
        k = 10
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        cents = 2.0 * np.arange(k)[::-1, None]  # lower index, larger value
        mids = np.arange(1.0, 2 * k - 2, 2.0)[:, None]
        pts = np.concatenate([mids, cents, mids + 0.5, mids - 0.25])
        before = cents + 0.5  # each midpoint's winner lies below it
        prev = clustering._assign(pts, before)
        assert (cents[prev.labels[:len(mids)], 0] == mids[:, 0] - 1).all()
        got = clustering._assign(pts, cents, prev)
        # the tie goes to the lower index, the centroid above
        assert (cents[got.labels[:len(mids)], 0] == mids[:, 0] + 1).all()
        assert_same_as_full_pass(pts, before, cents)
        assert np.array_equal(clustering._assign(pts, cents).labels, full_assign(pts, cents))

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_junk_stored_scores_with_every_centroid_moved(self, monkeypatch, rows):
        # every centroid moves, so every row is stale and no stored score is
        # screened; a stale row's window is drawn around its score against
        # its old label's new centroid, so stored scores as if each point sat
        # on its centroid, far too low, leave the labels the full pass's
        k = 16
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        rng = np.random.default_rng(26)
        pts = rng.random((120, 3)) * 100
        before = rng.random((k, 3)) * 100
        after = before + 1.0
        prev = clustering._assign(pts, before)
        prev = prev._replace(scores=-0.5 * np.einsum("ij,ij->i", pts, pts))
        got = clustering._assign(pts, after, prev)
        assert np.array_equal(got.labels, full_assign(pts, after))

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_first_step_means_beyond_every_centroid(self, monkeypatch, rows):
        # a first step guesses each row's centroid by mean order; rows whose
        # means lie below every centroid's take the first, and rows whose
        # means lie above every centroid's the last
        k = 12
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * k)
        rng = np.random.default_rng(27)
        cents = 40.0 + rng.random((k, 3)) * 20
        pts = np.concatenate([rng.random((30, 3)), 9.0 + rng.random((30, 3))]) * 10
        cmeans = cents.mean(axis=1)
        assert (pts[:30].mean(axis=1) < cmeans.min()).all()
        assert (pts[30:].mean(axis=1) > cmeans.max()).all()
        got = clustering._assign(pts, cents)
        assert np.array_equal(got.labels, full_assign(pts, cents))

    @settings(settings.get_profile("fuzz"), max_examples=300)
    @given(
        st.integers(2, 40), st.integers(1, 4), st.integers(1, 12),
        st.booleans(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
    )
    def test_windows_match_the_full_pass(self, n, dim, k, integer, rows, seed):
        # small random inputs with duplicate points and centroids, and a
        # step in which some centroids moved
        rng = np.random.default_rng(seed)
        k = min(k, n)
        if integer:
            pts = rng.integers(0, 4, (n, dim)).astype(np.float64)
        else:
            pts = rng.random((n, dim)) * 10
        cents = pts[rng.integers(0, n, k)]
        before = cents.copy()
        moved = rng.random(k) < 0.5
        before[moved] += rng.integers(-2, 3, (int(moved.sum()), dim))
        with mock.patch.object(clustering, "_CHUNK_BYTES", rows * 8 * k):
            want = full_assign(pts, cents)
            assert np.array_equal(clustering._assign(pts, cents).labels, want)
            prev = clustering._assign(pts, before)
            assert np.array_equal(prev.labels, full_assign(pts, before))
            got = clustering._assign(pts, cents, prev)
            assert np.array_equal(got.labels, want)

    def test_two_points_to_rescore(self):
        # a 2-row block at k=600, dim 64 can round unlike its chunks (it
        # does on OpenBLAS's SSE-only kernels)
        rng = np.random.default_rng(0)
        pts = rng.random((1000, 64)) * 255
        cents = rng.random((600, 64)) * 255
        owned = np.bincount(clustering._assign(pts, cents).labels, minlength=600)
        single = np.flatnonzero(owned == 1)
        for pair in zip(single[:8:2], single[1:8:2]):
            moved = cents.copy()
            moved[list(pair)] += 1e-3
            assert_same_as_full_pass(pts, cents, moved)

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_moved_centroid_ties_a_higher_unmoved_winner(self, monkeypatch, rows):
        # centroid 0 moves onto centroid 5, the winner of the points around
        # it: every such point now ties and must go to the lower index
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", rows * 8 * 16)
        rng = np.random.default_rng(22)
        cents = rng.random((16, 8)) * 255
        cents[0] = cents[5]
        pts = cents[5] + rng.random((300, 8)) * 1e-3
        before = cents.copy()
        before[[0, 1, 2, 3]] += 100.0
        prev = clustering._assign(pts, before)
        assert (prev.labels == 5).all()
        got = clustering._assign(pts, cents, prev)
        assert (got.labels == 0).all()
        assert_same_as_full_pass(pts, before, cents)

    def test_exact_tie_at_zero_margin(self, monkeypatch):
        # at the origin with every centroid at zero the screening margin is
        # 0, so only <= (not <) sends the tie with a lower index to a rescore
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", 8 * 8)
        pts = np.zeros((20, 3))
        before = np.zeros((8, 3))
        before[0] = 5.0
        prev = clustering._assign(pts, before)
        assert (prev.labels == 1).all()
        got = clustering._assign(pts, np.zeros((8, 3)), prev)
        assert (got.labels == 0).all()

    @pytest.mark.parametrize("k", [1023, 1024])
    def test_half_the_centroids_moved(self, k):
        # k = 1023 is off the 8-column unroll of OpenBLAS's dgemm kernels,
        # where a cell can round by its row's place in the block; it takes
        # the incremental path like k = 1024, certified like any k
        rng = np.random.default_rng(k)
        pts = rng.random((1024, 16)) * 255
        cents = rng.random((k, 16)) * 255
        after = cents.copy()
        after[::2] += 1.0
        assert_same_as_full_pass(pts, cents, after)

    def test_nothing_moved(self, monkeypatch):
        # with no centroid moved no row is stale: every block the walk
        # yields has an empty window, and nothing is scored
        monkeypatch.setattr(clustering, "_CHUNK_BYTES", 8 * 8)
        rng = np.random.default_rng(23)
        pts = rng.random((30, 2))
        cents = pts[:8].copy()
        prev = clustering._assign(pts, cents)
        windows, nearest = clustering._windows, clustering._nearest
        blocks, scored = [], []

        def walk(*args):
            for block in windows(*args):
                blocks.append(block)
                yield block

        def score(points, centroids, half_c2):
            scored.append(len(points))
            return nearest(points, centroids, half_c2)

        monkeypatch.setattr(clustering, "_windows", walk)
        monkeypatch.setattr(clustering, "_nearest", score)
        got = clustering._assign(pts, cents.copy(), prev)
        assert all(lo == hi for _, lo, hi in blocks)
        assert scored == []
        assert np.array_equal(got.labels, prev.labels)
        assert np.array_equal(got.scores, prev.scores)

    @settings(settings.get_profile("fuzz"), max_examples=300)
    @given(
        st.lists(st.integers(0, 6), min_size=0, max_size=40),
        st.lists(st.integers(0, 8), min_size=1, max_size=12),
        st.integers(1, 4), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
    )
    def test_windows_hold_every_rows_window(self, pmeans, cmeans, dim, height, seed):
        # duplicate means among rows and centroids, and zero-width windows
        # (a bound of -||p||^2 / 2); rows are any points in mean order
        rng = np.random.default_rng(seed)
        n = len(pmeans)
        means = np.array(pmeans, dtype=np.float64) / 2
        p2 = dim * means ** 2 + rng.integers(0, 3, n)
        bound = np.where(rng.random(n) < 0.3, -0.5 * p2, rng.random(n) * 4)
        rows = rng.permutation(n)
        rows = rows[np.argsort(means[rows], kind="stable")]
        bound = bound[rows]
        cm = np.sort(np.array(cmeans, dtype=np.float64) / 2)
        r = np.sqrt((p2[rows] + 2.0 * bound) / dim)
        want_lo = np.searchsorted(cm, means[rows] - r, "left")
        want_hi = np.searchsorted(cm, means[rows] + r, "right")
        covered = []
        walk = clustering._windows(cm, rows, means, p2, bound, dim, height)
        for span, lo, hi in walk:
            block = np.arange(n)[span]
            assert 0 < len(block) <= height
            assert lo <= want_lo[block].min() and want_hi[block].max() <= hi
            covered.extend(block.tolist())
        assert covered == list(range(n))


TESTS_DIR = Path(__file__).resolve().parent


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OpenBLAS's SSE-only kernels run on x86-64 only",
)
@pytest.mark.parametrize("core", ["Katmai", "Nehalem"])
def test_incremental_labels_on_sse_only_blas_kernels(core):
    """The assignment tests pass whatever dgemm kernel OpenBLAS picks: these
    two round some short blocks unlike a chunk of the full pass."""
    # this test's name must not match "Assign", or the subprocess runs it
    path = os.pathsep.join(
        [str(TESTS_DIR.parent / "src"), str(TESTS_DIR), os.environ.get("PYTHONPATH", "")]
    )
    # OpenBLAS maps some names to another core (Prescott loads Katmai), and
    # its verbose report, which "-s" lets through, names the core it loaded
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
               PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         str(TESTS_DIR / "test_clustering.py"), "-k", "Assign"],
        capture_output=True, text=True, env=env, cwd=TESTS_DIR.parent,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert f"Core: {core}" in proc.stderr, proc.stderr[-2000:]
